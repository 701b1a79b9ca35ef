#pragma once

// Cluster-contiguous batching of elements for the fused kernel pipeline
// (paper Sec. 5: fusing the small per-element GEMMs of a time cluster
// into blocked GEMMs is what makes the node-level performance).
//
// Elements of one LTS cluster are partitioned into batches of up to
// `batchSize` elements.  Within a batch, modal data lives in an
// interleaved tile
//
//     tile[l * ld + 9*e + p],   l < nb,  e < width,  p < 9,
//
// i.e. a row-major [nb x 9*width] matrix whose column blocks are the
// elements.  A reference-matrix product  M (nb x nb) * Q_e (nb x 9)  for
// every element of the batch then becomes ONE GEMM
// M (nb x nb) * tile (nb x 9*width), which turns the tiny n = 9 inner
// dimension of the per-element path into n = 9*width and keeps M hot in
// L1 across the whole batch.
//
// Crucially the tile transformation is pure data movement: each output
// value of a row-major GEMM is a sum over the k index in increasing
// order regardless of n-blocking, so the batched pipeline produces
// BITWISE-identical results to the per-element reference path.

#include <vector>

#include "common/types.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

struct ElementBatch {
  int cluster = 0;
  int begin = 0;  // index into ClusterBatchLayout::elements()
  int width = 0;  // number of elements in this batch (<= batchSize)
};

/// Pick a batch size such that the hot pair of tiles of the batched kernels
/// (2 tiles of nb x 9*B reals) stays within a 24 KiB L1d budget.  Returns a
/// multiple of 4 in [4, 64].
int autoBatchSize(int nb, int degree);

class ClusterBatchLayout {
 public:
  ClusterBatchLayout() = default;
  /// Partition every cluster's element list (in its given order) into
  /// batches.  `requestedBatch` <= 0 selects autoBatchSize().
  ClusterBatchLayout(const ClusterLayout& clusters, int nb, int degree,
                     int requestedBatch);

  int batchSize() const { return batchSize_; }
  /// Cluster-contiguous element ids (concatenated cluster element lists).
  const std::vector<int>& elements() const { return elements_; }
  const std::vector<ElementBatch>& batches() const { return batches_; }
  /// Half-open range [first, last) into batches() for cluster c.
  int firstBatchOfCluster(int c) const { return clusterBatchBegin_[c]; }
  int endBatchOfCluster(int c) const { return clusterBatchBegin_[c + 1]; }

 private:
  int batchSize_ = 0;
  std::vector<int> elements_;
  std::vector<ElementBatch> batches_;
  std::vector<int> clusterBatchBegin_;
};

/// Gather per-element modal blocks (contiguous [nb x 9] each) into an
/// interleaved tile: tile[l*ld + 9*lane + p] = src(elem)[l*9 + p].
/// `srcOf` maps a lane to the base pointer of that element's block.
void gatherTile(const real* src, const int* elems, int width, int nb,
                std::size_t elemStride, int ld, real* tile);

/// Inverse of gatherTile (bitwise round-trip).
void scatterTile(const real* tile, const int* elems, int width, int nb,
                 std::size_t elemStride, int ld, real* dst);

}  // namespace tsg
