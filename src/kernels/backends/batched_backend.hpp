#pragma once

// The batched pipeline: one cluster-contiguous batch per tile, fused
// blocked GEMMs over interleaved tiles (see kernels/batch_layout.hpp).
// The stage kernels of kernels/batched_kernels.* are called directly; the
// pipeline is bitwise-identical to the reference backend (pinned by
// tests/test_batched_kernels.cpp).
//
// The operand tensors (star matrices and negated star/flux matrices) are
// stored once in SimulationAssets, already in cluster order; the batching
// for one batch size (layout, batch-ordered faces, scratch size) comes
// from SimulationAssets::batchedAssets(batchSize), cached per batch size
// and const-shared.  This backend only holds a reference.

#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/backends/kernel_backend.hpp"
#include "kernels/batch_layout.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {

class BatchedBackend : public KernelBackend {
 public:
  explicit BatchedBackend(SolverState& state) : KernelBackend(state) {}

  const char* name() const override { return "batched"; }

  void prepare() override;
  void invalidateLayout() override { ba_.reset(); }

  std::size_t numTiles(int cluster) const override {
    return static_cast<std::size_t>(ba_->layout.endBatchOfCluster(cluster) -
                                    ba_->layout.firstBatchOfCluster(cluster));
  }
  void appendTileElements(int cluster, std::size_t tile,
                          std::vector<int>& out) const override {
    const ElementBatch& b = batchOf(cluster, tile);
    for (int i = 0; i < b.width; ++i) {
      out.push_back(ba_->layout.elements()[b.begin + i]);
    }
  }
  void runPredictorTile(int cluster, std::size_t tile,
                        bool resetBuffer) override;
  void runCorrectorTile(int cluster, std::size_t tile,
                        std::int64_t tick) override;

  const ClusterBatchLayout* batchLayout() const override {
    return ba_ ? &ba_->layout : nullptr;
  }
  int reportBatchSize() const override {
    return ba_ ? ba_->layout.batchSize()
               : (s_.cfg->batchSize > 0
                      ? s_.cfg->batchSize
                      : autoBatchSize(s_.rm->nb, s_.cfg->degree));
  }

 private:
  void predictorBatch(const ElementBatch& batch, bool reset);
  void correctorBatch(const ElementBatch& batch, std::int64_t tick);
  const ElementBatch& batchOf(int cluster, std::size_t tile) const {
    return ba_->layout.batches()[ba_->layout.firstBatchOfCluster(cluster) +
                                 static_cast<int>(tile)];
  }

  // Shared batched operand tensors (null until prepare()).
  std::shared_ptr<const BatchedAssets> ba_;
};

}  // namespace tsg
