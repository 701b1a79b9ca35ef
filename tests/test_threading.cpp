// The threading layer behind the persistent-parallel-region scheduler:
//  * ThreadPlan slices every cluster's tiles into contiguous, disjoint,
//    exhaustive per-thread ranges (and the fault faces likewise),
//  * the per-cluster fault-face id lists match a brute-force scan of the
//    fault (the rupture wave iterates exactly these, never ALL faces),
//  * PerfThreadRecorder / PerfMonitor::mergeThread accumulate per-thread
//    stats into the same totals the serial bracket would produce,
//  * runtimeWorkerCpus implements the paper's Sec. 5.2 placement policy
//    (sacrificed core when there is room, wrap-around when oversubscribed),
//  * the perf report records the worker thread count,
//  * the dynamic-chunk heuristic ltsChunkSize clamps and scales as
//    documented (solver/cluster_scheduler),
//  * the threaded SimulationAssets operand fill is bitwise independent
//    of the thread count.

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perf/perf_monitor.hpp"
#include "perfmodel/pinning.hpp"
#include "scenario/spec.hpp"
#include "solver/cluster_scheduler.hpp"
#include "solver/simulation.hpp"
#include "solver/thread_plan.hpp"

namespace tsg {
namespace {

using I64Rows = std::vector<std::vector<std::int64_t>>;

/// Uniform per-tile element counts matching a weight table's shape.
I64Rows onesLike(const I64Rows& weights) {
  I64Rows ones = weights;
  for (auto& row : ones) {
    std::fill(row.begin(), row.end(), 1);
  }
  return ones;
}

/// Every cluster's ranges must tile [0, numTiles) exactly: start at 0,
/// abut (no gap, no overlap), end at numTiles, in thread order.
void expectExhaustiveContiguous(const ThreadPlan& plan,
                                const I64Rows& weights) {
  ASSERT_EQ(plan.numClusters(), static_cast<int>(weights.size()));
  for (int c = 0; c < plan.numClusters(); ++c) {
    const int n = static_cast<int>(weights[c].size());
    int cursor = 0;
    for (int t = 0; t < plan.threads(); ++t) {
      const TileRange r = plan.tiles(c, t);
      EXPECT_EQ(r.begin, cursor) << "cluster " << c << " thread " << t;
      EXPECT_LE(r.begin, r.end);
      EXPECT_LE(r.end, n);
      cursor = r.end;
    }
    EXPECT_EQ(cursor, n) << "cluster " << c;
  }
}

TEST(ThreadPlan, UniformTilesSplitExhaustivelyAndEvenly) {
  const I64Rows weights = {std::vector<std::int64_t>(12, 100),
                           std::vector<std::int64_t>(7, 100)};
  const ThreadPlan plan =
      ThreadPlan::build(3, weights, onesLike(weights), {0, 0});
  EXPECT_EQ(plan.threads(), 3);
  expectExhaustiveContiguous(plan, weights);
  // Uniform weights: no thread's slice may exceed ceil(n / threads).
  for (int c = 0; c < plan.numClusters(); ++c) {
    const int n = static_cast<int>(weights[c].size());
    const int cap = (n + plan.threads() - 1) / plan.threads();
    for (int t = 0; t < plan.threads(); ++t) {
      EXPECT_LE(plan.tiles(c, t).count(), cap)
          << "cluster " << c << " thread " << t;
    }
  }
  EXPECT_GE(plan.maxImbalance(), 1.0);
  EXPECT_LT(plan.maxImbalance(), 2.0);
}

TEST(ThreadPlan, MoreThreadsThanTilesLeavesTrailingRangesEmpty) {
  const I64Rows weights = {{50, 50}, {}, {70}};
  const ThreadPlan plan =
      ThreadPlan::build(4, weights, onesLike(weights), {0, 0, 0});
  expectExhaustiveContiguous(plan, weights);
  int nonEmpty = 0;
  for (int t = 0; t < 4; ++t) {
    nonEmpty += plan.tiles(0, t).count() > 0 ? 1 : 0;
    EXPECT_EQ(plan.tiles(1, t).count(), 0) << "empty cluster, thread " << t;
  }
  EXPECT_EQ(nonEmpty, 2);  // two tiles -> at most one tile per thread
}

TEST(ThreadPlan, SkewedWeightsIsolateTheHeavyTile) {
  // One tile carries ~90% of the load; a weight-aware split must not
  // lump it together with many light tiles on one thread.
  std::vector<std::int64_t> w(10, 10);
  w[4] = 900;
  const I64Rows weights = {w};
  const ThreadPlan plan =
      ThreadPlan::build(2, weights, onesLike(weights), {0});
  expectExhaustiveContiguous(plan, weights);
  std::int64_t heavy = 0;
  for (int t = 0; t < 2; ++t) {
    std::int64_t sum = 0;
    for (int i = plan.tiles(0, t).begin; i < plan.tiles(0, t).end; ++i) {
      sum += w[i];
    }
    heavy = std::max(heavy, sum);
  }
  // Perfect would be 945 (heavy tile + half the rest); anything under
  // "heavy tile plus ALL light tiles" shows the weights were honored.
  EXPECT_LE(heavy, 900 + 50);
}

TEST(ThreadPlan, ElementsInMatchesTileElementSums) {
  const I64Rows weights = {{10, 20, 30, 40, 50}};
  const I64Rows elements = {{3, 1, 4, 1, 5}};
  const ThreadPlan plan = ThreadPlan::build(2, weights, elements, {0});
  std::uint64_t total = 0;
  for (int t = 0; t < 2; ++t) {
    const TileRange r = plan.tiles(0, t);
    std::uint64_t expected = 0;
    for (int i = r.begin; i < r.end; ++i) {
      expected += static_cast<std::uint64_t>(elements[0][i]);
    }
    EXPECT_EQ(plan.elementsIn(0, r), expected) << "thread " << t;
    total += expected;
  }
  EXPECT_EQ(total, 14u);
}

TEST(ThreadPlan, FaultRangesTileTheClusterFaceCounts) {
  const I64Rows weights = {{1, 1}, {1}};
  const ThreadPlan plan =
      ThreadPlan::build(3, weights, onesLike(weights), {7, 2});
  const std::vector<std::int64_t> faces = {7, 2};
  for (int c = 0; c < 2; ++c) {
    int cursor = 0;
    for (int t = 0; t < 3; ++t) {
      const TileRange r = plan.faultFaces(c, t);
      EXPECT_EQ(r.begin, cursor) << "cluster " << c << " thread " << t;
      EXPECT_LE(r.begin, r.end);
      cursor = r.end;
    }
    EXPECT_EQ(cursor, static_cast<int>(faces[c])) << "cluster " << c;
  }
}

/// The megathrust preset: a small scenario with a real fault.
ScenarioBundle megathrustPreset() {
  return loadPresetScenario(std::string(TSG_PRESET_DIR) + "/megathrust.cfg",
                            2);
}

TEST(Threading, FaultFaceClusterListsMatchBruteForceScan) {
  const auto sim = makeSimulation(megathrustPreset());
  const FaultSolver* fault = sim->fault();
  ASSERT_NE(fault, nullptr);
  ASSERT_GT(fault->numFaces(), 0);
  const ClusterLayout& cl = sim->clusters();

  std::set<int> seen;
  for (int c = 0; c < cl.numClusters; ++c) {
    const std::vector<int>& ids = sim->faultFaceIdsOfCluster(c);
    // Ascending (the staging order contract) and exactly this cluster.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(ids[i - 1], ids[i]);
      }
      const FaultFace& f = fault->faceAt(ids[i]);
      EXPECT_EQ(cl.cluster[f.minusElem], c) << "face " << ids[i];
      // Both sides of a rupture face share the cluster by construction
      // (time_clusters.cpp) -- the property that makes the per-cluster
      // grouping exhaustive in the first place.
      EXPECT_EQ(cl.cluster[f.plusElem], c) << "face " << ids[i];
      EXPECT_TRUE(seen.insert(ids[i]).second) << "duplicate " << ids[i];
    }
    // The list is exactly what the old full scan would have selected.
    std::vector<int> brute;
    for (int i = 0; i < fault->numFaces(); ++i) {
      if (cl.cluster[fault->faceAt(i).minusElem] == c) {
        brute.push_back(i);
      }
    }
    EXPECT_EQ(ids, brute) << "cluster " << c;
  }
  EXPECT_EQ(static_cast<int>(seen.size()), fault->numFaces());
}

/// FNV-1a 64 over the raw bytes of a contiguous array.
template <class Container>
std::uint64_t digestOf(const Container& c) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* b = reinterpret_cast<const unsigned char*>(c.data());
  for (std::size_t i = 0; i < c.size() * sizeof(*c.data()); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The operand fill of SimulationAssets is one threaded loop in which each
// element writes only its own slots; face kinds and aux indices come from
// a serial pass.  Every static array must therefore be bitwise the same at
// 1 and 4 threads (and under TSan this runs the parallel region).
TEST(Threading, AssetOperandsBitwiseAcrossThreadCounts) {
  const int saved = omp_get_max_threads();
  const ScenarioBundle bundle = megathrustPreset();
  const AssetConfig cfg = AssetConfig::fromSolverConfig(bundle.solver);
  std::vector<std::vector<std::uint64_t>> digests;
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    const SimulationAssets a(bundle.mesh, bundle.materials, cfg);
    digests.push_back({digestOf(a.starTB), digestOf(a.negStarTB),
                       digestOf(a.negFluxMinusTB), digestOf(a.negFluxPlusTB),
                       digestOf(a.faceKind), digestOf(a.faceAux),
                       digestOf(a.faceScale), digestOf(a.gravityFaces),
                       digestOf(a.ruptureFaces), a.assetHash});
    EXPECT_FALSE(a.gravityFaces.empty());
    EXPECT_FALSE(a.ruptureFaces.empty());
  }
  omp_set_num_threads(saved);
  const char* names[] = {"starTB",       "negStarTB",   "negFluxMinusTB",
                         "negFluxPlusTB", "faceKind",    "faceAux",
                         "faceScale",     "gravityFaces", "ruptureFaces",
                         "assetHash"};
  ASSERT_EQ(digests[0].size(), std::size(names));
  for (std::size_t i = 0; i < digests[0].size(); ++i) {
    EXPECT_EQ(digests[0][i], digests[1][i]) << names[i];
  }
}

TEST(Threading, PerfThreadRecorderMergesLikeTheSerialBracket) {
  PerfMonitor m;
  // Two "threads" each record waves over two clusters; totals must be
  // the element-wise sum regardless of merge order.
  for (int worker = 0; worker < 2; ++worker) {
    PerfThreadRecorder rec(&m, 2);
    rec.begin();
    rec.end(Phase::kPredictor, 0, 10, 1000);
    rec.begin();
    rec.end(Phase::kPredictor, 1, 5, 500);
    rec.begin();
    rec.end(Phase::kCorrector, 0, 10, 2000);
    rec.flush(worker);
  }
  const PhaseStats pred = m.total(Phase::kPredictor);
  EXPECT_EQ(pred.invocations, 4u);
  EXPECT_EQ(pred.elementUpdates, 30u);
  EXPECT_EQ(pred.bytesEstimate, 3000u);
  EXPECT_GE(pred.seconds, 0.0);
  const PhaseStats corr = m.total(Phase::kCorrector);
  EXPECT_EQ(corr.invocations, 2u);
  EXPECT_EQ(corr.elementUpdates, 20u);
  ASSERT_EQ(m.perCluster(Phase::kPredictor).size(), 2u);
  EXPECT_EQ(m.perCluster(Phase::kPredictor)[1].elementUpdates, 10u);
  EXPECT_EQ(m.total(Phase::kRuptureFlux).invocations, 0u);
}

TEST(Threading, NullMonitorRecorderIsANoOp) {
  PerfThreadRecorder rec(nullptr, 4);
  rec.begin();
  rec.end(Phase::kPredictor, 0, 10, 100);
  rec.flush(0);  // must not crash
}

TEST(Threading, PerfReportRecordsThreadCount) {
  const auto sim = makeSimulation(megathrustPreset());
  const PerfReportMeta meta = sim->perfReportMeta("unit");
  EXPECT_GE(meta.threads, 1);
  PerfMonitor m;
  const std::string json = perfReportJson(m, meta);
  EXPECT_NE(json.find("\"threads\": " + std::to_string(meta.threads)),
            std::string::npos);
}

TEST(Threading, RuntimeWorkerCpusFollowsTheSacrificedCorePolicy) {
  const std::vector<int> cpus = processCpus();
  ASSERT_FALSE(cpus.empty());
  const int n = static_cast<int>(cpus.size());
  for (int threads = 1; threads <= n + 3; ++threads) {
    const std::vector<int> workers = runtimeWorkerCpus(threads);
    ASSERT_EQ(static_cast<int>(workers.size()), threads) << threads;
    for (const int cpu : workers) {
      EXPECT_NE(std::find(cpus.begin(), cpus.end(), cpu), cpus.end())
          << "cpu " << cpu << " not in the process mask";
    }
    if (threads < n) {
      // Room to spare: the last allowed CPU stays free for comm/IO.
      EXPECT_EQ(std::find(workers.begin(), workers.end(), cpus.back()),
                workers.end())
          << threads << " threads on " << n << " cpus";
    }
    if (threads >= n) {
      // Oversubscribed: every CPU is used, nothing idles.
      std::set<int> used(workers.begin(), workers.end());
      EXPECT_EQ(static_cast<int>(used.size()), n) << threads;
    }
  }
}

TEST(Threading, PinCurrentThreadToCpuRoundTrips) {
  const std::vector<int> cpus = processCpus();
  ASSERT_FALSE(cpus.empty());
  // Pin from a scratch thread so the test binary's own affinity (shared
  // by every later test) is left untouched.
  bool pinned = false;
  bool rejected = true;
  std::thread worker([&] {
    pinned = pinCurrentThreadToCpu(cpus.front());
    rejected = !pinCurrentThreadToCpu(-1);
  });
  worker.join();
#ifdef __linux__
  EXPECT_TRUE(pinned);
#endif
  EXPECT_TRUE(rejected);
}

TEST(Threading, SchedulerHonorsPinThreadsConfigWithoutChangingResults) {
  // pinThreads is an execution strategy: switching it on must not change
  // a single bit of the output.
  const int saved = omp_get_max_threads();
  const ScenarioBundle s = megathrustPreset();
  auto run = [&](bool pin) {
    omp_set_num_threads(2);
    ScenarioBundle bundle = s;
    bundle.solver.deterministic = true;
    bundle.solver.pinThreads = pin;
    auto sim = makeSimulation(bundle);
    sim->advanceTo(1.999 * sim->macroDt());
    return sim;
  };
  const auto plain = run(false);
  const auto pinned = run(true);
  omp_set_num_threads(saved);
  const auto& qa = plain->dofsData();
  const auto& qb = pinned->dofsData();
  ASSERT_EQ(qa.size(), qb.size());
  EXPECT_EQ(0, std::memcmp(qa.data(), qb.data(), qa.size() * sizeof(real)));
}

TEST(ClusterSchedulerChunk, ClampsAndScales) {
  // Few tiles: hand them out one by one.
  EXPECT_EQ(ltsChunkSize(0, 8), 1);
  EXPECT_EQ(ltsChunkSize(7, 8), 1);
  EXPECT_EQ(ltsChunkSize(32, 8), 1);
  // ~4 chunks per thread in the scaling regime.
  EXPECT_EQ(ltsChunkSize(4 * 8 * 10, 8), 10);
  EXPECT_EQ(ltsChunkSize(4 * 4 * 25, 4), 25);
  // Huge loops saturate at 32 so chunks stay cache-friendly.
  EXPECT_EQ(ltsChunkSize(1000000, 2), 32);
  // Degenerate thread counts do not divide by zero.
  EXPECT_GE(ltsChunkSize(100, 0), 1);
}

}  // namespace
}  // namespace tsg
