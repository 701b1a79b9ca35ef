#pragma once

// The per-element reference pipeline: one element per tile, kernels from
// kernels/element_kernels.hpp.  Kept as the readable oracle the batched
// backend is validated against.

#include "kernels/backends/kernel_backend.hpp"

namespace tsg {

class ReferenceBackend : public KernelBackend {
 public:
  explicit ReferenceBackend(SolverState& state) : KernelBackend(state) {}

  const char* name() const override { return "reference"; }

  std::size_t numTiles(int cluster) const override {
    return s_.clusters->elementsOfCluster[cluster].size();
  }
  void appendTileElements(int cluster, std::size_t tile,
                          std::vector<int>& out) const override {
    out.push_back(s_.clusters->elementsOfCluster[cluster][tile]);
  }
  void runPredictorTile(int cluster, std::size_t tile,
                        bool resetBuffer) override;
  void runCorrectorTile(int cluster, std::size_t tile,
                        std::int64_t tick) override;

 private:
  void predictor(int elem);
  void corrector(int elem, std::int64_t tick);
};

}  // namespace tsg
