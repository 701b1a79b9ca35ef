#include "common/kernel_path.hpp"

namespace tsg {

namespace {

constexpr struct {
  KernelPath path;
  const char* name;
} kTable[] = {
    {KernelPath::kReference, "reference"},
    {KernelPath::kBatched, "batched"},
};

}  // namespace

const char* kernelPathName(KernelPath path) {
  for (const auto& e : kTable) {
    if (e.path == path) {
      return e.name;
    }
  }
  return "unknown";
}

std::optional<KernelPath> parseKernelPath(const std::string& name) {
  for (const auto& e : kTable) {
    if (name == e.name) {
      return e.path;
    }
  }
  return std::nullopt;
}

const char* kernelPathChoices() { return "reference | batched"; }

}  // namespace tsg
