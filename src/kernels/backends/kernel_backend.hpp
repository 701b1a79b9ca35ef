#pragma once

// KernelBackend: the stage-execution layer of the solver.  A backend owns
// the predictor / volume / surface / corrector stage implementations over
// whatever data layout it chooses (per-element blocks, cluster-contiguous
// tiles, ...); the ClusterScheduler (src/solver/cluster_scheduler.*) owns
// the LTS macro-cycle ordering and calls back into the backend per
// independent work item ("tile").
//
// Backends:
//  * reference -- one element per tile, the readable per-element oracle;
//  * batched   -- one cluster-contiguous batch per tile, fused blocked
//    GEMMs, bitwise-identical to reference.

#include <cstdint>
#include <memory>

#include "kernels/backends/solver_state.hpp"

namespace tsg {

class ClusterBatchLayout;

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Canonical name: "reference" | "batched".
  virtual const char* name() const = 0;

  /// (Re)build layout-dependent data.  Called at the start of every
  /// advance; must be idempotent and cheap when already prepared.
  virtual void prepare() {}
  /// Invalidate layout-dependent data (e.g. after setupFault assigns
  /// rupture face indices).
  virtual void invalidateLayout() {}

  /// Number of independent work items for one stage pass over cluster c.
  /// The scheduler's ThreadPlan slices [0, numTiles) into per-thread
  /// contiguous ranges.
  virtual std::size_t numTiles(int cluster) const = 0;

  /// Append the mesh element ids of one tile of cluster c to `out`.  The
  /// thread-plan builder aggregates Eq. 28 vertex weights per tile with
  /// this, and the per-thread perf accounting derives element counts from
  /// it; not called on the stepping hot path.
  virtual void appendTileElements(int cluster, std::size_t tile,
                                  std::vector<int>& out) const = 0;

  /// Predictor stage for one tile of cluster c: derivative stacks, time
  /// integrals, and LTS buffer accumulation (`resetBuffer` restarts the
  /// coarser neighbour's accumulation window).
  virtual void runPredictorTile(int cluster, std::size_t tile,
                                bool resetBuffer) = 0;

  /// Corrector stage for one tile of cluster c ending at `tick`: volume +
  /// surface stages, seafloor recording, receiver sampling.
  virtual void runCorrectorTile(int cluster, std::size_t tile,
                                std::int64_t tick) = 0;

  /// Stage the Godunov flux traces of one dynamic-rupture face (shared by
  /// all backends; pointwise, not layout-dependent).
  void stageRuptureFace(int face, real dt, real stepStartTime);

  /// Batch layout of tile-based backends (null for reference).
  virtual const ClusterBatchLayout* batchLayout() const { return nullptr; }
  /// Batch size for the perf report (0 for reference).
  virtual int reportBatchSize() const { return 0; }

 protected:
  explicit KernelBackend(SolverState& state) : s_(state) {}

  SolverState& s_;
};

/// Per-thread kernel scratch, held in thread-local storage so it is valid
/// for any thread that enters a kernel regardless of how the OpenMP
/// thread count changes after construction.  Two independent slots:
/// 0 = per-element scratch, 1 = batched tile scratch (a batched corrector
/// uses both at once).  Every kernel fully initialises the regions it
/// reads, so content shared across Simulation instances cannot leak.
/// The returned pointer is 64-byte aligned, so the tile GEMMs see the
/// same alignment whatever the thread's earlier heap use was.
real* backendThreadScratch(int slot, std::size_t size);

/// Factory for the configured kernel path (throws std::invalid_argument
/// for an unknown path).
std::unique_ptr<KernelBackend> makeKernelBackend(SolverState& state);

}  // namespace tsg
