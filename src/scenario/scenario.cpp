#include "scenario/scenario.hpp"

#include <stdexcept>

#include "common/errors.hpp"

namespace tsg {

namespace {

/// Shared tail of both overloads: the canonical setup sequence on a
/// freshly constructed Simulation.
std::unique_ptr<Simulation> finishSimulation(std::unique_ptr<Simulation> sim,
                                             const ScenarioBundle& bundle);

}  // namespace

std::unique_ptr<Simulation> makeSimulation(const ScenarioBundle& bundle) {
  return finishSimulation(std::make_unique<Simulation>(
                              bundle.mesh, bundle.materials, bundle.solver),
                          bundle);
}

std::unique_ptr<Simulation> makeSimulation(
    const ScenarioBundle& bundle,
    std::shared_ptr<const SimulationAssets> assets) {
  return finishSimulation(
      std::make_unique<Simulation>(std::move(assets), bundle.solver), bundle);
}

namespace {

std::unique_ptr<Simulation> finishSimulation(std::unique_ptr<Simulation> sim,
                                             const ScenarioBundle& bundle) {
  // No initial condition means a zero state, which the DOFs already are.
  if (bundle.initial) {
    sim->setInitialCondition(bundle.initial);
  }
  if (bundle.faultInit) {
    sim->setupFault(bundle.faultInit);
  }
  if (bundle.initialEta) {
    sim->initializeSeaSurface(bundle.initialEta);
  }
  for (const auto& rec : bundle.receivers) {
    try {
      sim->addReceiver(rec.name, rec.x);
    } catch (const std::invalid_argument& e) {
      throw ConfigError("receiver '" + rec.name + "': " + e.what());
    }
  }
  return sim;
}

}  // namespace

}  // namespace tsg
