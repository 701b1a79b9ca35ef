#pragma once

// ConstSpan: a minimal non-owning read-only view over contiguous storage.
//
// SimulationAssets (solver/simulation_assets.hpp) allocates its four
// static kernel operands (star matrices, negated star and flux matrices)
// back to back in one uninitialised block; ConstSpan views name each of
// them, and BatchedAssets re-exposes the same views under the same names.

#include <cstddef>

namespace tsg {

template <class T>
class ConstSpan {
 public:
  ConstSpan() = default;
  ConstSpan(const T* data, std::size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tsg
