#pragma once

// Floating-point operation accounting.
//
// SeisSol reports sustained GFLOPS for its production runs (paper Secs. 5.1,
// 6.2, 6.3).  We count the FLOPs of every GEMM issued by the element
// kernels into a plain thread-local counter, so counting is cheap enough to
// stay enabled in production builds.  There is no process-wide total:
// callers read deltas of threadFlops() around the work they measure.

#include <cstdint>

namespace tsg {

/// Add `n` floating point operations to this thread's counter.
void countFlops(std::uint64_t n);

/// The calling thread's counter since the thread started.  Lock-free and
/// only ever written by this thread, so it is safe inside parallel regions.
std::uint64_t threadFlops();

}  // namespace tsg
