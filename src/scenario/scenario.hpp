#pragma once

// ScenarioBundle: the complete, scenario-agnostic description of one
// workload -- mesh, material table, solver defaults, initial condition,
// fault initialisation, optional initial sea-surface displacement, and
// receiver array.  The config-driven DSL (scenario/spec.hpp) produces
// it, and makeSimulation() assembles a Simulation from it through one
// code path shared by the CLI, the ensemble engine, benches and tests.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geometry/mesh.hpp"
#include "physics/material.hpp"
#include "rupture/fault_solver.hpp"
#include "solver/simulation.hpp"
#include "solver/solver_config.hpp"

namespace tsg {

struct ScenarioReceiver {
  std::string name;
  Vec3 x{};
};

struct ScenarioBundle {
  std::string name;  // display name (logs, telemetry, perf metadata)
  Mesh mesh;
  std::vector<Material> materials;
  /// Scenario defaults (degree, gravity, friction law); CLI-controlled
  /// execution options are layered on top by the driver.
  SolverConfig solver;
  /// Null means zero initial state.
  InitialCondition initial;
  /// Null when the scenario has no dynamic-rupture fault.
  FaultInitFn faultInit;
  /// Optional initial sea-surface displacement eta(x, y); null = flat.
  std::function<real(real, real)> initialEta;
  std::vector<ScenarioReceiver> receivers;
};

/// Build a Simulation from a bundle through the one canonical sequence
/// (initial condition, fault, sea surface, receivers).  Receiver points
/// outside the mesh surface as ConfigError (they are declaration errors,
/// whether declared in C++ or in a config file).
std::unique_ptr<Simulation> makeSimulation(const ScenarioBundle& bundle);

/// Same sequence, but attach the run to prebuilt shared assets (the
/// ensemble path) instead of building private ones from bundle.mesh.
/// The assets must have been built from an identical mesh/material
/// table/structural config (the ensemble asset cache guarantees it by
/// keying on computeAssetHash).
std::unique_ptr<Simulation> makeSimulation(
    const ScenarioBundle& bundle,
    std::shared_ptr<const SimulationAssets> assets);

}  // namespace tsg
