#pragma once

// SolverConfig: everything that parameterises a Simulation, shared by the
// lifecycle layer (solver/simulation.*), the cluster scheduler, and the
// kernel backends (src/kernels/backends/).

#include <array>
#include <functional>

#include "common/kernel_path.hpp"
#include "common/types.hpp"
#include "rupture/fault_solver.hpp"

namespace tsg {

struct SolverConfig {
  int degree = 2;
  real cflFraction = 0.35;  // C(N) = cflFraction / (2N+1), the paper's choice
  real gravity = 9.81;      // 0 disables the gravitational surface term
  int ltsRate = 2;          // clustered LTS rate (cluster c: dt_min*rate^c),
                            // 1 = global time stepping
  int maxClusters = 12;
  FrictionLawType frictionLaw = FrictionLawType::kLinearSlipWeakening;
  // Force bitwise-reproducible stepping across OpenMP thread counts:
  // static loop schedules instead of dynamic work stealing.  Element
  // updates write disjoint state in a fixed per-element operation order,
  // so results are reproducible either way; `deterministic` pins the
  // traversal so that reproducibility no longer depends on that disjointness
  // argument holding for future solver extensions.
  bool deterministic = false;
  // Kernel pipeline selection (see common/kernel_path.hpp).  Like
  // `deterministic`, the path changes the execution strategy but not the
  // state layout, so it is deliberately excluded from configHash():
  // checkpoints are interchangeable between both paths, which also
  // produce bitwise-identical results.
  KernelPath kernelPath = KernelPath::kBatched;
  int batchSize = 0;  // elements per batch tile; <= 0 selects an L1d-sized
                      // default (see autoBatchSize)
  // Pin the persistent parallel region's worker threads to cores
  // (perfmodel/pinning runtime policy, paper Sec. 5.2).  Off by default:
  // affinity is process-global state and embedders/MPI launchers often
  // manage it themselves.  Set via the CLI `pin_threads` key.
  // Execution strategy only -- excluded from configHash() like
  // `deterministic`, and it never affects results (the ThreadPlan slicing
  // is bitwise-neutral; see solver/thread_plan.hpp).
  bool pinThreads = false;
};

/// q(x, material) -> initial state.
using InitialCondition =
    std::function<std::array<real, kNumQuantities>(const Vec3&, int material)>;

}  // namespace tsg
