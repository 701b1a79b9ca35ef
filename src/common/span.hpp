#pragma once

// ConstSpan: a minimal non-owning read-only view over contiguous storage.
//
// The solver's static per-element / per-face arrays (star matrices, flux
// matrices, face metadata) moved from per-Simulation vectors into the
// shared immutable SimulationAssets (solver/simulation_assets.hpp).
// SolverState exposes them under the assets' field names as ConstSpan
// views, so the kernel backends and the scheduler read plain expressions
// (`s_.starTB.data()`, `s_.faceKind[idx]`, range-for) against storage that
// is owned once and shared by every ensemble member and batch size.

#include <cstddef>

namespace tsg {

template <class T>
class ConstSpan {
 public:
  ConstSpan() = default;
  ConstSpan(const T* data, std::size_t size) : data_(data), size_(size) {}
  /// View over any contiguous container with data()/size() (std::vector).
  template <class Container>
  explicit ConstSpan(const Container& c) : data_(c.data()), size_(c.size()) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tsg
