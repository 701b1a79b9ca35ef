// The threading layer behind the persistent-parallel-region scheduler:
//  * ThreadPlan slices every cluster's tiles into contiguous, disjoint,
//    exhaustive per-thread ranges (and the fault faces likewise),
//  * the per-cluster fault-face id lists match a brute-force scan of the
//    fault (the rupture wave iterates exactly these, never ALL faces),
//  * PerfThreadRecorder / PerfMonitor::mergeThread sum per-thread stats
//    per (phase, cluster), independent of merge order,
//  * runtimeWorkerCpus implements the paper's Sec. 5.2 placement policy
//    (sacrificed core when there is room, wrap-around when oversubscribed),
//  * the perf report records the worker thread count,
//  * the dynamic-chunk heuristic ltsChunkSize clamps and scales as
//    documented (solver/cluster_scheduler),
//  * the threaded SimulationAssets operand fill is bitwise independent
//    of the thread count, and its deduplicated slots (computed once per
//    distinct input, then copied) equal a direct per-slot build.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perf/perf_monitor.hpp"
#include "perfmodel/pinning.hpp"
#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"
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
// dictionary entry is written once; the operand indices, the face table
// and stackNeeded come from a serial pass.  Every static array must
// therefore be bitwise the same at 1 and 4 threads (and under TSan this
// runs the parallel region).
// digestOf reads raw bytes, so a face record must have no padding.
static_assert(sizeof(FaceRecord) == 4 + 3 * sizeof(int) + sizeof(real));

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
                       digestOf(a.starIndex), digestOf(a.fluxIndex),
                       digestOf(a.faceTable), digestOf(a.stackNeeded),
                       digestOf(a.gravityFaces),
                       digestOf(a.ruptureFaces), a.assetHash});
    EXPECT_FALSE(a.gravityFaces.empty());
    EXPECT_FALSE(a.ruptureFaces.empty());
  }
  omp_set_num_threads(saved);
  const char* names[] = {"starTB",       "negStarTB",    "negFluxMinusTB",
                         "negFluxPlusTB", "starIndex",    "fluxIndex",
                         "faceTable",     "stackNeeded",  "gravityFaces",
                         "ruptureFaces",  "assetHash"};
  ASSERT_EQ(digests[0].size(), std::size(names));
  for (std::size_t i = 0; i < digests[0].size(); ++i) {
    EXPECT_EQ(digests[0][i], digests[1][i]) << names[i];
  }
}

/// The operand slots of SimulationAssets rebuilt directly, one element and
/// one face at a time, in the same ordered layout.
struct DirectOperands {
  std::vector<real> star, negStar, negFluxMinus, negFluxPlus;
};

DirectOperands buildOperandsDirectly(const SimulationAssets& a) {
  constexpr int stride = kNumQuantities * kNumQuantities;
  const Mesh& mesh = a.mesh;
  const int n = mesh.numElements();
  DirectOperands d;
  d.star.assign(static_cast<std::size_t>(n) * 3 * stride, 0.0);
  d.negStar.assign(d.star.size(), 0.0);
  d.negFluxMinus.assign(static_cast<std::size_t>(n) * 4 * stride, 0.0);
  d.negFluxPlus.assign(d.negFluxMinus.size(), 0.0);
  const auto storeNegT = [](const Matrix& m, real scale, real* dst) {
    for (int i = 0; i < kNumQuantities; ++i) {
      for (int j = 0; j < kNumQuantities; ++j) {
        dst[i * kNumQuantities + j] = -(scale * m(j, i));
      }
    }
  };
  // Face-frame operators per (minus material, plus material or -1,
  // folded boundary type or -1), as the asset build chooses them.
  std::map<std::array<int, 3>, GodunovOperators> ops;
  const auto opsOf = [&](const std::array<int, 3>& key) -> const auto& {
    auto it = ops.find(key);
    if (it == ops.end()) {
      const Material& m = a.materialTable[key[0]];
      it = ops.emplace(key, key[1] >= 0
                                ? godunovOperators(m, a.materialTable[key[1]])
                                : boundaryOperators(
                                      m, static_cast<BoundaryType>(key[2])))
               .first;
    }
    return it->second;
  };
  for (int i = 0; i < n; ++i) {
    const std::size_t oi = static_cast<std::size_t>(i);
    const int e = a.orderedElements[i];
    const auto j = mesh.jacobianColumns(e);
    const real det = dot(j[0], cross(j[1], j[2]));
    const std::array<Vec3, 3> g = {(1.0 / det) * cross(j[1], j[2]),
                                   (1.0 / det) * cross(j[2], j[0]),
                                   (1.0 / det) * cross(j[0], j[1])};
    for (int c = 0; c < 3; ++c) {
      const Matrix star = starMatrix(a.elemMaterial[e], g[c]);
      for (int r = 0; r < kNumQuantities; ++r) {
        for (int k = 0; k < kNumQuantities; ++k) {
          d.star[(oi * 3 + c) * stride + r * kNumQuantities + k] = star(k, r);
          d.negStar[(oi * 3 + c) * stride + r * kNumQuantities + k] =
              -star(k, r);
        }
      }
    }
    const int mat = mesh.elements[e].material;
    for (int f = 0; f < 4; ++f) {
      const FaceRecord& rec = a.faceTable[oi * 4 + f];
      const FaceInfo& info = mesh.faces[e][f];
      std::array<int, 3> key;
      if (rec.kind == FaceKind::kRegular) {
        key = {mat, mesh.elements[info.neighbor].material, -1};
      } else if (rec.kind == FaceKind::kBoundaryFolded) {
        const BoundaryType bc = info.bc == BoundaryType::kGravityFreeSurface
                                    ? BoundaryType::kFreeSurface
                                    : info.bc;
        key = {mat, -1, static_cast<int>(bc)};
      } else {
        continue;  // gravity / rupture: pointwise fluxes, zero operands
      }
      const FluxMatrices fm =
          faceFluxMatrices(opsOf(key), mesh.faceNormal(e, f));
      storeNegT(fm.fMinus, rec.scale,
                d.negFluxMinus.data() + (oi * 4 + f) * stride);
      if (rec.kind == FaceKind::kRegular) {
        storeNegT(fm.fPlus, rec.scale,
                  d.negFluxPlus.data() + (oi * 4 + f) * stride);
      }
    }
  }
  return d;
}

/// First ordered element or face slot whose operand, resolved through the
/// asset's operand index, differs bitwise from the direct build, or -1.
using OperandOf = const real* (SimulationAssets::*)(std::size_t) const;
long firstDifferingSlot(const SimulationAssets& a, OperandOf operandOf,
                        std::size_t reals, const std::vector<real>& direct) {
  for (std::size_t s = 0; s < direct.size() / reals; ++s) {
    if (std::memcmp((a.*operandOf)(s), direct.data() + s * reals,
                    reals * sizeof(real)) != 0) {
      return static_cast<long>(s);
    }
  }
  return -1;
}

/// The mesh with every vertex off the domain boundary moved by a seeded
/// random offset of up to 1e-3 of the shortest edge per component, so
/// that (almost) no two elements or faces share their operand inputs.
Mesh jitterInteriorVertices(Mesh mesh) {
  std::vector<char> onBoundary(mesh.vertices.size(), 0);
  real shortest = std::numeric_limits<real>::max();
  for (int e = 0; e < mesh.numElements(); ++e) {
    const auto& v = mesh.elements[e].vertices;
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) {
        shortest = std::min(
            shortest,
            std::sqrt(norm2(mesh.vertices[v[p]] - mesh.vertices[v[q]])));
      }
    }
    for (int f = 0; f < 4; ++f) {
      if (mesh.faces[e][f].neighbor < 0) {
        for (const int vid : mesh.faceVertices(e, f)) {
          onBoundary[vid] = 1;
        }
      }
    }
  }
  std::mt19937_64 rng(2018);
  std::uniform_real_distribution<real> offset(-1e-3 * shortest,
                                              1e-3 * shortest);
  for (std::size_t v = 0; v < mesh.vertices.size(); ++v) {
    if (!onBoundary[v]) {
      for (int c = 0; c < 3; ++c) {
        mesh.vertices[v][c] += offset(rng);
      }
    }
  }
  return mesh;
}

/// A second crust, denser and stiffer by the same factor (same wave
/// speeds, so the same clusters), on a seeded random half of the crust
/// elements: elements of equal geometry then differ in their material.
/// (A pattern in the element index would follow the mesher's per-hex
/// tet numbering, and so the geometry.)
void alternateCrustMaterial(Mesh& mesh, std::vector<Material>& materials) {
  const int crust = static_cast<int>(std::find_if(materials.begin(),
                                                  materials.end(),
                                                  [](const Material& m) {
                                                    return !m.isAcoustic();
                                                  }) -
                                     materials.begin());
  ASSERT_LT(crust, static_cast<int>(materials.size()));
  Material denser = materials[crust];
  denser.rho *= 1.1;
  denser.lambda *= 1.1;
  denser.mu *= 1.1;
  materials.push_back(denser);
  std::mt19937_64 rng(2021);
  std::bernoulli_distribution coin(0.5);
  for (int e = 0; e < mesh.numElements(); ++e) {
    if (mesh.elements[e].material == crust && coin(rng)) {
      mesh.elements[e].material = static_cast<int>(materials.size()) - 1;
    }
  }
}

// The operand dictionary holds each distinct (material, grad xi) star
// operand and each distinct (operator set, normal, scale) flux operand
// once.  Every slot's operand, resolved through starIndex / fluxIndex,
// must equal a direct build from its own element and face, at 1 and 4
// threads, on the megathrust preset (heavy repetition), on a copy with
// jittered interior vertices (next to none), and on a copy whose equal
// geometry carries two crust materials.  A key that dropped the material,
// the normal or the scale would point a slot at an operand it does not
// fit.  The dictionary never holds more than one entry per slot (the
// jittered copy comes close) and, on the preset, far fewer.
TEST(Threading, AssetOperandsMatchDirectBuild) {
  constexpr std::size_t kStar = SimulationAssets::kStarReals;
  constexpr std::size_t kFlux = SimulationAssets::kFluxReals;
  const int saved = omp_get_max_threads();
  const ScenarioBundle bundle = megathrustPreset();
  const AssetConfig cfg = AssetConfig::fromSolverConfig(bundle.solver);
  for (const std::string variant : {"preset", "jittered", "two crusts"}) {
    SCOPED_TRACE(variant);
    Mesh mesh = bundle.mesh;
    std::vector<Material> materials = bundle.materials;
    if (variant == "jittered") {
      mesh = jitterInteriorVertices(std::move(mesh));
    } else if (variant == "two crusts") {
      alternateCrustMaterial(mesh, materials);
    }
    std::unique_ptr<DirectOperands> direct;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      omp_set_num_threads(threads);
      const SimulationAssets a(mesh, materials, cfg);
      if (!direct) {
        direct = std::make_unique<DirectOperands>(buildOperandsDirectly(a));
      }
      ASSERT_EQ(a.starIndex.size() * kStar, direct->star.size());
      ASSERT_EQ(a.fluxIndex.size() * kFlux, direct->negFluxMinus.size());
      const std::size_t stars = a.starTB.size() / kStar;
      const std::size_t fluxes = a.negFluxMinusTB.size() / kFlux;
      ASSERT_EQ(a.negStarTB.size(), a.starTB.size());
      ASSERT_EQ(a.negFluxPlusTB.size(), a.negFluxMinusTB.size());
      for (const std::int32_t i : a.starIndex) {
        ASSERT_TRUE(i >= 0 && static_cast<std::size_t>(i) < stars) << i;
      }
      for (const std::int32_t i : a.fluxIndex) {
        ASSERT_TRUE(i >= 0 && static_cast<std::size_t>(i) < fluxes) << i;
      }
      EXPECT_LE(stars, a.starIndex.size());
      EXPECT_LE(fluxes, a.fluxIndex.size());
      if (variant == "preset") {
        EXPECT_LT(10 * stars, a.starIndex.size());
        EXPECT_LT(10 * fluxes, a.fluxIndex.size());
      }
      EXPECT_EQ(firstDifferingSlot(a, &SimulationAssets::starOf, kStar,
                                   direct->star),
                -1)
          << "starTB";
      EXPECT_EQ(firstDifferingSlot(a, &SimulationAssets::negStarOf, kStar,
                                   direct->negStar),
                -1)
          << "negStarTB";
      EXPECT_EQ(firstDifferingSlot(a, &SimulationAssets::negFluxMinusOf,
                                   kFlux, direct->negFluxMinus),
                -1)
          << "negFluxMinusTB";
      EXPECT_EQ(firstDifferingSlot(a, &SimulationAssets::negFluxPlusOf, kFlux,
                                   direct->negFluxPlus),
                -1)
          << "negFluxPlusTB";
    }
  }
  omp_set_num_threads(saved);
}

TEST(Threading, PerfThreadRecorderMergesPerClusterSums) {
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
