#include "solver/thread_plan.hpp"

#include <algorithm>
#include <cassert>

#include "geometry/dual_graph.hpp"
#include "kernels/backends/kernel_backend.hpp"
#include "partition/partitioner.hpp"
#include "partition/weights.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {

namespace {

/// Path graph over n tiles: tile t is adjacent to t-1 and t+1.  Cutting a
/// path into nparts contiguous runs is exactly the per-thread slicing we
/// want, and the partitioner's greedy growing naturally produces such
/// runs; edge weights of 1 make refinement prefer few, straight cuts.
DualGraph pathGraph(const std::vector<std::int64_t>& weights) {
  const int n = static_cast<int>(weights.size());
  DualGraph g;
  g.adjOffsets.resize(n + 1, 0);
  g.vertexWeights = weights;
  for (int v = 0; v < n; ++v) {
    g.adjOffsets[v + 1] =
        g.adjOffsets[v] + (v > 0 ? 1 : 0) + (v + 1 < n ? 1 : 0);
  }
  g.adjacency.reserve(g.adjOffsets[n]);
  g.edgeWeights.reserve(g.adjOffsets[n]);
  for (int v = 0; v < n; ++v) {
    if (v > 0) {
      g.adjacency.push_back(v - 1);
      g.edgeWeights.push_back(1);
    }
    if (v + 1 < n) {
      g.adjacency.push_back(v + 1);
      g.edgeWeights.push_back(1);
    }
  }
  return g;
}

/// part[] -> ordered contiguous cut points [0 = c_0 <= ... <= c_nparts = n],
/// or false when some part is not one contiguous run (FM refinement can
/// trade contiguity for balance on a path graph).
bool contiguousCuts(const std::vector<int>& part, int nparts,
                    std::vector<int>& cuts) {
  const int n = static_cast<int>(part.size());
  // Runs in vertex order; each part id must appear as exactly one run.
  std::vector<char> seen(nparts, 0);
  std::vector<std::pair<int, int>> runs;  // (part, end)
  for (int v = 0; v < n; ++v) {
    if (v == 0 || part[v] != part[v - 1]) {
      if (part[v] < 0 || part[v] >= nparts || seen[part[v]]) {
        return false;
      }
      seen[part[v]] = 1;
      runs.push_back({part[v], v});
    }
    runs.back().second = v + 1;
  }
  // Assign runs to threads in vertex order (the run's own part id only
  // mattered for balancing); unused parts become empty ranges at the end.
  cuts.assign(nparts + 1, n);
  cuts[0] = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    cuts[r + 1] = runs[r].second;
  }
  return static_cast<int>(runs.size()) <= nparts;
}

/// Balanced contiguous fallback: cut after the tile where the weight
/// prefix first reaches k/nparts of the total.
void prefixCuts(const std::vector<std::int64_t>& weights, int nparts,
                std::vector<int>& cuts) {
  const int n = static_cast<int>(weights.size());
  std::int64_t total = 0;
  for (std::int64_t w : weights) {
    total += w;
  }
  cuts.assign(nparts + 1, n);
  cuts[0] = 0;
  std::int64_t acc = 0;
  int k = 1;
  for (int v = 0; v < n && k < nparts; ++v) {
    acc += weights[v];
    while (k < nparts && acc * nparts >= total * k) {
      cuts[k++] = v + 1;
    }
  }
}

double cutImbalance(const std::vector<std::int64_t>& weights,
                    const std::vector<int>& cuts, int nparts) {
  std::int64_t total = 0, heaviest = 0;
  for (int p = 0; p < nparts; ++p) {
    std::int64_t w = 0;
    for (int v = cuts[p]; v < cuts[p + 1]; ++v) {
      w += weights[v];
    }
    heaviest = std::max(heaviest, w);
    total += w;
  }
  return total > 0 ? static_cast<double>(heaviest) * nparts / total : 1.0;
}

}  // namespace

ThreadPlan ThreadPlan::build(
    int threads, const std::vector<std::vector<std::int64_t>>& tileWeights,
    const std::vector<std::vector<std::int64_t>>& tileElements,
    const std::vector<std::int64_t>& faultFaces) {
  assert(threads >= 1);
  ThreadPlan plan;
  plan.threads_ = threads;
  plan.numClusters_ = static_cast<int>(tileWeights.size());
  plan.tileRanges_.assign(
      static_cast<std::size_t>(plan.numClusters_) * threads, TileRange{});
  plan.faultRanges_.assign(
      static_cast<std::size_t>(plan.numClusters_) * threads, TileRange{});
  plan.elemPrefix_.resize(plan.numClusters_);

  std::vector<int> cuts;
  for (int c = 0; c < plan.numClusters_; ++c) {
    const std::vector<std::int64_t>& w = tileWeights[c];
    const int n = static_cast<int>(w.size());
    plan.elemPrefix_[c].assign(n + 1, 0);
    for (int t = 0; t < n; ++t) {
      plan.elemPrefix_[c][t + 1] = plan.elemPrefix_[c][t] + tileElements[c][t];
    }

    const int nparts = std::max(1, std::min(threads, n));
    if (nparts <= 1 || n <= 1) {
      cuts.assign(threads + 1, n);
      cuts[0] = 0;
    } else {
      const PartitionResult res = partitionGraph(pathGraph(w), nparts);
      if (!contiguousCuts(res.part, nparts, cuts)) {
        prefixCuts(w, nparts, cuts);
      } else {
        // Keep whichever contiguous split balances better; refinement
        // optimises edge cut, which on a path graph is nearly constant.
        std::vector<int> alt;
        prefixCuts(w, nparts, alt);
        if (cutImbalance(w, alt, nparts) < cutImbalance(w, cuts, nparts)) {
          cuts = alt;
        }
      }
      cuts.resize(nparts + 1);
      cuts.resize(threads + 1, n);  // empty trailing ranges
    }
    plan.maxImbalance_ =
        std::max(plan.maxImbalance_,
                 cutImbalance(w, cuts, std::max(1, std::min(threads, n))));
    for (int t = 0; t < threads; ++t) {
      plan.tileRanges_[static_cast<std::size_t>(c) * threads + t] = {
          cuts[t], cuts[t + 1]};
    }

    // Fault faces: uniform per-face cost, even contiguous count split.
    const std::int64_t nf = c < static_cast<int>(faultFaces.size())
                                ? faultFaces[c]
                                : 0;
    for (int t = 0; t < threads; ++t) {
      plan.faultRanges_[static_cast<std::size_t>(c) * threads + t] = {
          static_cast<int>(nf * t / threads),
          static_cast<int>(nf * (t + 1) / threads)};
    }
  }
  return plan;
}

ThreadPlan buildThreadPlan(int threads, const SimulationAssets& assets,
                           const KernelBackend& backend) {
  const ClusterLayout& clusters = assets.clusters;
  const std::vector<std::int64_t> elemWeights =
      computeVertexWeights(assets.mesh, clusters, VertexWeightParams{});

  std::vector<std::vector<std::int64_t>> tileWeights(clusters.numClusters);
  std::vector<std::vector<std::int64_t>> tileElements(clusters.numClusters);
  std::vector<int> elems;
  for (int c = 0; c < clusters.numClusters; ++c) {
    const std::size_t tiles = backend.numTiles(c);
    tileWeights[c].resize(tiles);
    tileElements[c].resize(tiles);
    for (std::size_t t = 0; t < tiles; ++t) {
      elems.clear();
      backend.appendTileElements(c, t, elems);
      std::int64_t w = 0;
      for (int e : elems) {
        w += elemWeights[e];
      }
      tileWeights[c][t] = w;
      tileElements[c][t] = static_cast<std::int64_t>(elems.size());
    }
  }

  std::vector<std::int64_t> faultFaces(clusters.numClusters);
  for (int c = 0; c < clusters.numClusters; ++c) {
    faultFaces[c] =
        static_cast<std::int64_t>(assets.faultFaceIdsOfCluster[c].size());
  }
  return ThreadPlan::build(threads, tileWeights, tileElements, faultFaces);
}

}  // namespace tsg
