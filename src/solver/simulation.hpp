#pragma once

// The fully-coupled elastic-acoustic ADER-DG solver with gravity and
// dynamic rupture -- the paper's core contribution, split into four
// layers:
//
//  * SimulationAssets (solver/simulation_assets.*): the immutable,
//    shareable half -- mesh/geometry, reference matrices, LTS cluster
//    structure, static kernel operands, boundary/fault-face topology --
//    built once and const-shared by any number of runs;
//  * Simulation (this file): per-run lifecycle glue -- DOFs and run
//    state, configuration, receivers, checkpoint/restart, run health,
//    perf report metadata;
//  * ClusterScheduler (solver/cluster_scheduler.*): the rate-r clustered
//    local-time-stepping macro cycle (Sec. 4.4) and OpenMP work
//    distribution over each phase's tiles;
//  * KernelBackend (kernels/backends/): the predictor / volume / surface
//    / corrector stage kernels over the backend's data layout
//    (reference, batched -- see common/kernel_path.hpp).
//
// Physics orchestrated across the layers:
//  * ADER space-time predictor per element (Sec. 4.1),
//  * exact-Riemann (Godunov) fluxes with elastic-acoustic coupling
//    (Sec. 4.2), precomputed as per-face 9x9 matrices,
//  * gravitational free surface via a boundary ODE (Sec. 4.3),
//  * dynamic rupture with LSW / rate-and-state friction.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geometry/mesh.hpp"
#include "geometry/spatial_index.hpp"
#include "gravity/gravity_surface.hpp"
#include "kernels/backends/kernel_backend.hpp"
#include "kernels/batch_layout.hpp"
#include "kernels/reference_matrices.hpp"
#include "perf/perf_monitor.hpp"
#include "physics/material.hpp"
#include "rupture/fault_solver.hpp"
#include "solver/cluster_scheduler.hpp"
#include "solver/receivers.hpp"
#include "solver/simulation_assets.hpp"
#include "solver/solver_config.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

struct SeafloorSample {
  real x, y;
  real uplift;  // accumulated vertical displacement of the seafloor [m]
};

class Simulation {
 public:
  /// Standalone construction: builds private SimulationAssets from the
  /// mesh and table (which are copied/moved), then delegates.
  /// `materialTable` is indexed by Element::material.
  Simulation(Mesh mesh, std::vector<Material> materialTable, SolverConfig cfg);

  /// Shared-asset construction: attach a new run to prebuilt immutable
  /// assets (the ensemble path -- N members share one instance).  `cfg`
  /// must structurally match the assets (degree, CFL fraction, gravity,
  /// LTS rate, max clusters); per-run fields (friction law, kernel path,
  /// batch size, thread pinning) are free.  Throws
  /// std::invalid_argument on a structural mismatch.
  Simulation(std::shared_ptr<const SimulationAssets> assets, SolverConfig cfg);

  // ---- setup ----------------------------------------------------------
  void setInitialCondition(const InitialCondition& f);
  /// Configure every tagged dynamic-rupture face.  Must be called before
  /// the first advance if the mesh has fault faces.
  void setupFault(const FaultInitFn& init);
  /// Register a receiver at physical point x (throws if outside the mesh).
  int addReceiver(const std::string& name, const Vec3& x);
  /// Initialise the sea-surface displacement eta(x, y) on all gravity
  /// faces (no-op without gravity faces).
  void initializeSeaSurface(const std::function<real(real, real)>& f);
  /// Callback fired after every completed macro cycle (all clusters
  /// synchronised); usable for snapshot output / one-way linking capture.
  void onMacroStep(const std::function<void(real time)>& cb);

  // ---- time stepping --------------------------------------------------
  /// Advance in whole macro cycles until time() >= tEnd (overshoot is at
  /// most one macro cycle).
  void advanceTo(real tEnd);
  real time() const { return time_; }
  /// Completed dtMin ticks (time() == tick() * dtMin()).
  std::int64_t tick() const { return scheduler_->tick(); }
  real dtMin() const { return assets_->clusters.dtMin; }
  real macroDt() const;

  // ---- observation ----------------------------------------------------
  std::array<real, kNumQuantities> evaluate(int elem, const Vec3& xi) const;
  std::array<real, kNumQuantities> evaluateAt(const Vec3& x) const;
  /// Element containing x, or -1 (grid-accelerated; O(1) typical).
  int findElement(const Vec3& x) const;

  const Mesh& mesh() const { return assets_->mesh; }
  const SolverConfig& config() const { return cfg_; }
  const ClusterLayout& clusters() const { return assets_->clusters; }
  /// The immutable shared half of this run (never null).
  const std::shared_ptr<const SimulationAssets>& assets() const {
    return assets_;
  }
  const GravityBoundary* gravitySurface() const { return gravity_.get(); }
  const FaultSolver* fault() const { return fault_.get(); }
  /// Fault-face ids whose (shared) cluster is c, ascending; the rupture
  /// wave iterates exactly this list.  Precomputed from mesh topology
  /// (populated even before setupFault).
  const std::vector<int>& faultFaceIdsOfCluster(int c) const {
    return assets_->faultFaceIdsOfCluster[c];
  }
  const Receiver& receiver(int i) const { return state_.receivers[i]; }
  int numReceivers() const {
    return static_cast<int>(state_.receivers.size());
  }

  /// Sea-surface displacement samples (empty without gravity faces).
  std::vector<SurfaceSample> seaSurface() const;
  /// Accumulated seafloor uplift at the elastic-acoustic interface.
  std::vector<SeafloorSample> seafloor() const;

  /// Completed element updates (the LTS time-to-solution metric).
  std::uint64_t elementUpdates() const { return scheduler_->elementUpdates(); }

  /// The stage-execution backend selected by cfg.kernelPath.
  const KernelBackend& backend() const { return *backend_; }

  // ---- performance observability --------------------------------------
  /// Start recording per-phase x per-cluster wall time, FLOPs, and
  /// element throughput during advanceTo.  `withTrace` additionally keeps
  /// a bounded chrome-trace event buffer.  Overhead: two clock reads and
  /// one counter aggregation per phase region.
  PerfMonitor& enablePerfMonitor(bool withTrace = false);
  PerfMonitor* perfMonitor() { return perf_.get(); }
  const PerfMonitor* perfMonitor() const { return perf_.get(); }
  /// Static run metadata for perfReportJson / writePerfReport.
  PerfReportMeta perfReportMeta(const std::string& scenario) const;

  /// Raw modal coefficients ([element][nb][9]); read-only, used by the
  /// kernel-equivalence and relayout property tests.
  const std::vector<real>& dofsData() const { return state_.dofs; }
  /// Cluster-contiguous batch layout of tile-based backends (empty for
  /// the reference backend).
  const ClusterBatchLayout& batchLayout() const;

  // ---- checkpoint / restart -------------------------------------------
  /// Serialize the full mutable solver state (DOFs, clock, sea-surface
  /// eta, fault friction state, seafloor uplift accumulators, receiver
  /// series) to a versioned, CRC-protected binary file, written
  /// atomically (temp + rename) so a crash mid-write never corrupts the
  /// previous checkpoint.  Call between advanceTo calls / from an
  /// onMacroStep callback: the state is only consistent at macro-cycle
  /// boundaries.  Throws IoError on filesystem failure.
  void saveCheckpoint(const std::string& path) const;
  /// Restore state saved by saveCheckpoint into this simulation, which
  /// must have been built identically (same mesh, degree, solver config,
  /// fault setup, and registered receivers).  Throws CheckpointError with
  /// a descriptive message on any mismatch or corruption; the simulation
  /// state is unmodified if validation fails before the payload is
  /// applied.
  void restoreCheckpoint(const std::string& path);
  /// Hash of everything that determines checkpoint compatibility (degree,
  /// CFL fraction, gravity, LTS layout, friction law, mesh size, dtMin).
  std::uint64_t configHash() const;
  /// Hash of the shared immutable assets (mesh content + material table
  /// + structural config); stored in the checkpoint header.
  std::uint64_t assetHash() const { return assets_->assetHash; }
  /// Provenance hash of the scenario/member config that produced this run
  /// (0 = unset).  The CLI and ensemble drivers set it to the FNV-1a of
  /// the expanded member config text; checkpoints carry it and restoring
  /// rejects a nonzero mismatch, so a member can only resume from its own
  /// checkpoints.
  void setScenarioHash(std::uint64_t h) { scenarioHash_ = h; }
  std::uint64_t scenarioHash() const { return scenarioHash_; }

  // ---- run health ------------------------------------------------------
  /// Element index of the first non-finite DOF, or -1 (parallel scan).
  int firstNonFiniteElement() const;
  /// Test hook: poison one element's DOFs with a NaN, as a hard-to-trigger
  /// instability would (used to exercise the health monitor).
  void debugInjectNonFinite(int elem);

  /// Material of an element (resolved from the table).
  const Material& materialOf(int elem) const {
    return assets_->elemMaterial[elem];
  }

 private:
  /// Zero the slices of stack, tInt and buffer that a run writes (see
  /// SolverState), in parallel.
  void resetDerivedState();

  std::shared_ptr<const SimulationAssets> assets_;
  SolverConfig cfg_;
  const ReferenceMatrices& rm_;

  real time_ = 0;
  std::uint64_t scenarioHash_ = 0;

  // Per-run solver state operated on by the backends and the scheduler
  // (kernels/backends/solver_state.hpp); static data is read from
  // assets_, mutable state is owned here.
  SolverState state_;

  std::unique_ptr<GravityBoundary> gravity_;
  std::unique_ptr<FaultSolver> fault_;

  std::unique_ptr<KernelBackend> backend_;
  std::unique_ptr<ClusterScheduler> scheduler_;
  std::unique_ptr<PerfMonitor> perf_;

  std::vector<std::function<void(real)>> macroCallbacks_;
};

}  // namespace tsg
