#pragma once

// The communication-thread pinning algorithm of paper Sec. 5.2 as a pure
// function over a node topology:
//
//  * each rank leaves one physical core free of OpenMP workers,
//  * worker threads fill the rank's cores via OMP_PLACES-style placement,
//  * the per-node union of worker CPU masks is computed (the
//    MPI_COMM_TYPE_SHARED reduction in the paper),
//  * communication/IO threads are pinned to free logical CPUs that lie in
//    NUMA domains already used by the rank's workers.

#include <vector>

#include "perfmodel/machine.hpp"

namespace tsg {

struct RankPinning {
  std::vector<int> workerCpus;  // logical CPU ids of worker threads
  std::vector<int> commCpus;    // logical CPU ids for the comm thread
};

struct NodePinning {
  std::vector<RankPinning> ranks;
  /// Logical CPUs occupied by any worker on the node.
  std::vector<int> workerMask;
};

/// Compute the pinning for `ranksPerNode` ranks on one node, each using
/// all cores of its share minus one (the paper's "sacrificed" core), with
/// `threadsPerCore` SMT threads per worker core.
NodePinning computeNodePinning(const NodeTopology& node, int ranksPerNode);

/// NUMA domain of a logical CPU (workers are placed core-major:
/// cpu = core * threadsPerCore + smt).
int numaOfCpu(const NodeTopology& node, int cpu);

// ---- runtime pinning (the Sec. 5.2 policy applied to THIS process) ----
//
// The pure computeNodePinning() above models the paper's machines; the
// functions below apply the same placement ideas to whatever CPUs the
// current process is actually allowed to run on, so the scheduler's
// persistent parallel region can pin its workers (SolverConfig::pinThreads
// / the CLI `pin_threads` key).

/// Logical CPUs this process may run on, in id order (Linux
/// sched_getaffinity; falls back to 0..hardware_concurrency-1 elsewhere).
std::vector<int> processCpus();

/// CPU of each of `threads` workers over processCpus(), core-major in id
/// order.  When there are MORE allowed CPUs than workers, the last CPU is
/// left worker-free for comm/IO threads (telemetry flushes, checkpoint
/// writes) -- the paper's sacrificed core.  When workers fill or exceed
/// the CPUs, all CPUs are used and assignment wraps around
/// (oversubscription must never pile every thread on a subset).  Empty
/// when no CPUs can be detected.
std::vector<int> runtimeWorkerCpus(int threads);

/// Pin the calling thread to one logical CPU.  Returns false (no-op) on
/// non-Linux platforms or when the kernel rejects the mask.
bool pinCurrentThreadToCpu(int cpu);

}  // namespace tsg
