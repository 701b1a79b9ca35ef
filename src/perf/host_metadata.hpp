#pragma once

// Host provenance for performance measurements.
//
// ROADMAP rule: cross-day benchmark ratios are untrustworthy -- the
// machine, its frequency governor, and the thread binding all drift
// between sessions.  The benchmark's tracer (perfbench/trace.cpp)
// therefore records the evidence needed to judge comparability after the
// fact: core count, CPU model string, scaling governor, the compiler
// version, and the OpenMP / pinning environment the run saw.  Values
// are best-effort strings; keys whose source is unavailable (no sysfs,
// unset env) are simply absent.

#include <map>
#include <string>

namespace tsg {

/// Best-effort host metadata: "nproc", "cpu_model", "scaling_governor",
/// "compiler" (the building compiler's __VERSION__), and the run
/// environment ("omp_num_threads", "omp_proc_bind", "omp_places") -- env
/// keys only when set.
std::map<std::string, std::string> collectHostMetadata();

}  // namespace tsg
