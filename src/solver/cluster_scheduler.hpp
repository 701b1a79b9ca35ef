#pragma once

// ClusterScheduler: the LTS orchestration layer.  Owns the rate-r
// clustered local-time-stepping macro cycle (paper Sec. 4.4) -- which
// cluster runs its predictor / rupture-flux / corrector phase at which
// tick, in which order.  WHAT runs per tile is the KernelBackend's
// business (src/kernels/backends/); the scheduler never touches element
// data.
//
// Threading (paper Sec. 5.2): ONE persistent OpenMP parallel region owns
// the whole macro cycle instead of a fork/join per phase loop.  Each
// worker thread walks its ThreadPlan slice (cluster-contiguous tile
// ranges, Eq. 28-weighted; see solver/thread_plan.hpp) through the tick
// loop; barriers separate the dependency fronts of each tick:
//
//   predictor wave (all due clusters)   -- writes own stack/tInt/buffer
//     barrier                           -- rupture reads BOTH face stacks
//   rupture wave   (fault runs only)    -- stages Godunov flux traces
//     barrier                           -- corrector reads staged fluxes
//   corrector wave (all due clusters)   -- reads neighbour tInt (same
//     barrier                              cluster), stack (coarser),
//                                          buffer (finer, accumulated by
//                                          the SAME tick's or an earlier
//                                          predictor wave)
//
// The trailing barrier covers the anti-dependency: the next tick's
// predictor overwrites tInt/stack/buffer that this tick's correctors
// still read.  Coarse clusters waiting on fine neighbours' buffer
// accumulation is expressed by the due-set itself: a coarse cluster's
// corrector only becomes due at a tick where every finer cluster has
// completed `rate` accumulation steps.  Every thread computes the due
// sets from its private tick copy, so threads agree on the barrier count
// with no shared mutable state; the clock (tick_, elementUpdates_) is
// committed once by the orchestrating thread after the region.
//
// Bitwise determinism across OMP_NUM_THREADS holds structurally: tiles
// write only their own elements' state, each fault face / seafloor face /
// receiver belongs to exactly one tile, and there are no cross-tile FP
// reductions -- so the slicing changes wall time, never results (pinned
// by tests/test_determinism.cpp and tests/test_lts_deep.cpp).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/backends/kernel_backend.hpp"
#include "perf/perf_monitor.hpp"
#include "solver/thread_plan.hpp"

namespace tsg {

/// Dynamic-schedule chunk for a fork/join phase loop of `tiles` work
/// items on `threads` threads: aim for ~4 chunks per thread so work
/// stealing can still balance unequal tile costs, clamped to [1, 32] so a
/// handful of heavy batch tiles are handed out one by one while thousands
/// of light per-element tiles are not scheduled individually.  The
/// persistent-region scheduler replaced its users with ThreadPlan's
/// static weighted slices; kept as the sizing heuristic for embedders'
/// own loops (and pinned by tests/test_threading.cpp).
inline int ltsChunkSize(std::size_t tiles, int threads) {
  const std::size_t perThread =
      tiles / (4 * static_cast<std::size_t>(std::max(threads, 1)));
  return static_cast<int>(
      std::clamp<std::size_t>(perThread, std::size_t{1}, std::size_t{32}));
}

class ClusterScheduler {
 public:
  ClusterScheduler(SolverState& state, KernelBackend& backend)
      : s_(state), backend_(backend) {}

  /// Advance every cluster by one macro cycle (ticksPerMacro dtMin
  /// ticks), all clusters synchronised on return.  Records per-phase
  /// busy time / FLOPs / bytes into `perf` when non-null (per-thread
  /// accumulated, merged at cycle end).
  void runMacroCycle(PerfMonitor* perf);

  /// Completed dtMin ticks.
  std::int64_t tick() const { return tick_; }
  /// Completed element updates (the LTS time-to-solution metric).
  std::uint64_t elementUpdates() const { return elementUpdates_; }
  /// Reset the LTS clock (checkpoint restore; macro-cycle boundary only).
  void restoreClock(std::int64_t tick, std::uint64_t elementUpdates) {
    tick_ = tick;
    elementUpdates_ = elementUpdates;
  }

  /// Worker threads of the current ThreadPlan (0 before the first macro
  /// cycle); what actually executed, unlike omp_get_max_threads() which
  /// reports ambient state that may have changed since.
  int planThreads() const { return plan_.threads(); }
  const ThreadPlan& threadPlan() const { return plan_; }

 private:
  /// (Re)build the ThreadPlan when the thread count changed since the
  /// last cycle (the plan is otherwise a function of the assets and of
  /// the backend's tiling, which is fixed at its construction).
  void ensurePlan();

  // Analytic main-memory traffic models for the perf report [bytes/elem].
  std::uint64_t predictorBytesPerElement() const;
  std::uint64_t correctorBytesPerElement() const;
  std::uint64_t ruptureBytesPerFace() const;

  SolverState& s_;
  KernelBackend& backend_;
  std::int64_t tick_ = 0;
  std::uint64_t elementUpdates_ = 0;

  ThreadPlan plan_;
  std::vector<int> workerCpus_;  // resolved pinning; empty = pinning off
};

}  // namespace tsg
