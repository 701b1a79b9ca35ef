#pragma once

// Host provenance for performance reports.
//
// ROADMAP rule: cross-day benchmark ratios are untrustworthy -- the
// machine, its frequency governor, and the thread binding all drift
// between sessions.  Every BENCH_kernels.json therefore records the
// evidence needed to judge comparability after the fact: core count,
// CPU model string, scaling governor, and the OpenMP / pinning
// environment the run saw.  Values are best-effort strings; keys whose
// source is unavailable (no sysfs, unset env) are simply absent.

#include <map>
#include <string>

namespace tsg {

/// Best-effort host metadata: "nproc", "cpu_model", "scaling_governor",
/// and the run environment ("omp_num_threads", "omp_proc_bind",
/// "omp_places") -- env keys only when set.  Feed into
/// PerfReportMeta::host.
std::map<std::string, std::string> collectHostMetadata();

}  // namespace tsg
