#pragma once

// Kernel-pipeline selection shared by the solver, the CLI, the perf
// report, and the benchmarks.  This is the single enum <-> string mapping
// for the `kernel_path` configuration key; every layer that parses or
// prints a kernel path goes through these helpers so the accepted
// spellings cannot drift apart.

#include <optional>
#include <string>

namespace tsg {

/// Which stepping pipeline executes the element kernels.
///  * kReference -- one element at a time; the readable oracle.
///  * kBatched   -- fused cluster-contiguous tile GEMMs, bitwise-identical
///    to the reference path (tests/test_batched_kernels.cpp).
enum class KernelPath {
  kReference,
  kBatched,
};

/// Canonical config-file spelling: "reference" | "batched".
const char* kernelPathName(KernelPath path);

/// Parse a config-file spelling; nullopt for anything unknown.
std::optional<KernelPath> parseKernelPath(const std::string& name);

/// "reference | batched" -- for error messages and usage text.
const char* kernelPathChoices();

}  // namespace tsg
