#include "common/flops.hpp"

namespace tsg {

namespace {

thread_local std::uint64_t t_flops = 0;

}  // namespace

void countFlops(std::uint64_t n) { t_flops += n; }

std::uint64_t threadFlops() { return t_flops; }

}  // namespace tsg
