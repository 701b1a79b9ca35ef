#pragma once

// The batched pipeline: one cluster-contiguous batch per tile, fused
// blocked GEMMs over interleaved tiles (see kernels/batch_layout.hpp).
// The stage kernels of kernels/batched_kernels.* are called directly; the
// pipeline is bitwise-identical to the reference backend (pinned by
// tests/test_batched_kernels.cpp).
//
// The operand tensors (star matrices and negated star/flux matrices) are
// read from SimulationAssets' operand dictionary through its per-element
// and per-face indices: the flux stages take a pointer per lane, and the
// star kernels read the batch's entries gathered lane-major into the tile
// scratch.  The face table is stored once in SimulationAssets, in cluster
// order; the batch layout for the run's batch size comes from
// SimulationAssets::batchedAssets(batchSize), cached per batch size and
// const-shared, and is fetched when the backend is constructed.

#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/backends/kernel_backend.hpp"
#include "kernels/batch_layout.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {

class BatchedBackend : public KernelBackend {
 public:
  explicit BatchedBackend(SolverState& state);

  const char* name() const override { return "batched"; }

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
    return &ba_->layout;
  }
  int reportBatchSize() const override { return ba_->layout.batchSize(); }

 private:
  void predictorBatch(const ElementBatch& batch, bool reset);
  void correctorBatch(const ElementBatch& batch, std::int64_t tick);
  const ElementBatch& batchOf(int cluster, std::size_t tile) const {
    return ba_->layout.batches()[ba_->layout.firstBatchOfCluster(cluster) +
                                 static_cast<int>(tile)];
  }

  // Shared batch layout of the run's batch size.
  std::shared_ptr<const BatchedAssets> ba_;
  // Tile scratch of the pipeline: (degree+3) tiles of nb*9*batchSize
  // reals, then, at starTileOffset_, the batch's gathered star operands
  // (batchSize x 3 x 81 reals).
  std::size_t starTileOffset_ = 0;
  std::size_t tileScratchSize_ = 0;
};

}  // namespace tsg
