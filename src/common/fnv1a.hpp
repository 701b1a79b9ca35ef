#pragma once

// FNV-1a 64, the one hash behind the run's identity keys: the asset-cache
// key (computeAssetHash), the checkpoint config hash
// (Simulation::configHash) and the expanded-config hash of the CLI and
// ensemble drivers (hashFileBytes).  Checkpoint headers and hazard JSON
// store these values, so the function must not change.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tsg {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ull;

/// Fold `n` raw bytes at `p` into the running hash `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold the object representation of one trivially copyable value.
template <class T>
std::uint64_t fnv1aOf(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(h, &v, sizeof v);
}

}  // namespace tsg
