// Equivalence of the batched cluster-ordered kernel pipeline with the
// per-element reference path:
//  * bitwise-identical receiver CSVs on the megathrust mini-scenario
//    (gravity + dynamic rupture + LTS all active),
//  * bitwise-identical DOFs after every macro step on the coupled-layer
//    mode,
//  * the relayout gather/scatter round-trips modal data exactly,
//  * the batch layout is a permutation partition of the element set,
//  * every batch size views the asset's one operand copy, and a
//    non-default batch size still matches the reference path bitwise,
//  * the face table both paths read agrees with the mesh it is built
//    from.

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/batch_layout.hpp"
#include "scenario/plane_wave.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {
namespace {

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

ScenarioBundle megathrustPreset() {
  return loadPresetScenario(std::string(TSG_PRESET_DIR) + "/megathrust.cfg",
                            2);
}

std::unique_ptr<Simulation> megathrustMini(KernelPath path, int threads,
                                           int batchSize = 0) {
  omp_set_num_threads(threads);
  ScenarioBundle bundle = megathrustPreset();
  bundle.solver.kernelPath = path;
  bundle.solver.batchSize = batchSize;
  auto sim = makeSimulation(bundle);
  sim->advanceTo(2.999 * sim->macroDt());
  return sim;
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The acceptance criterion of the batched pipeline: on the megathrust
// scenario (exercising gravity faces, rupture faces, folded boundaries,
// and a multi-cluster LTS layout at once) the batched path reproduces the
// reference path's receiver output BYTE-for-byte.
TEST(BatchedKernels, MegathrustReceiversBitwiseMatchReference) {
  ThreadCountGuard guard;
  const auto ref = megathrustMini(KernelPath::kReference, 8);
  const auto bat = megathrustMini(KernelPath::kBatched, 8);
  ASSERT_EQ(ref->numReceivers(), bat->numReceivers());
  for (int r = 0; r < ref->numReceivers(); ++r) {
    const Receiver& rr = ref->receiver(r);
    const Receiver& rb = bat->receiver(r);
    ASSERT_EQ(rr.samples.size(), rb.samples.size());
    ASSERT_FALSE(rr.samples.empty());
    for (std::size_t i = 0; i < rr.samples.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&rr.samples[i], &rb.samples[i],
                               sizeof(rr.samples[i])))
          << "receiver " << r << " sample " << i;
      EXPECT_EQ(rr.times[i], rb.times[i]);
    }
    const std::string pr = "batched_ref_" + rr.name + ".csv";
    const std::string pb = "batched_bat_" + rb.name + ".csv";
    rr.writeCsv(pr);
    rb.writeCsv(pb);
    const std::string bytes = fileBytes(pr);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, fileBytes(pb));
    std::remove(pr.c_str());
    std::remove(pb.c_str());
  }
  // Seafloor uplift accumulators and the raw modal state agree exactly.
  const auto sr = ref->seafloor();
  const auto sb = bat->seafloor();
  ASSERT_EQ(sr.size(), sb.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].uplift, sb[i].uplift);
  }
  ASSERT_EQ(ref->dofsData().size(), bat->dofsData().size());
  EXPECT_EQ(0, std::memcmp(ref->dofsData().data(), bat->dofsData().data(),
                           ref->dofsData().size() * sizeof(real)));
}

// The operands exist once per asset: every batch size views that copy
// (no per-batch-size relayout), in the order every batch layout keeps.
TEST(BatchedKernels, BatchSizesViewTheOneAssetOperandCopy) {
  const ScenarioBundle s = megathrustPreset();
  const SimulationAssets assets(s.mesh, s.materials,
                                AssetConfig::fromSolverConfig(s.solver));
  const auto b8 = assets.batchedAssets(8);
  const auto b16 = assets.batchedAssets(16);
  ASSERT_NE(b8, b16);
  EXPECT_EQ(b8->layout.batchSize(), 8);
  EXPECT_EQ(b16->layout.batchSize(), 16);
  for (const BatchedAssets* ba : {b8.get(), b16.get()}) {
    EXPECT_EQ(ba->starTB.data(), assets.starTB.data());
    EXPECT_EQ(ba->negStarTB.data(), assets.negStarTB.data());
    EXPECT_EQ(ba->negFluxMinusTB.data(), assets.negFluxMinusTB.data());
    EXPECT_EQ(ba->negFluxPlusTB.data(), assets.negFluxPlusTB.data());
    EXPECT_EQ(ba->starTB.size(), assets.starTB.size());
    EXPECT_EQ(ba->negFluxPlusTB.size(), assets.negFluxPlusTB.size());
    EXPECT_EQ(ba->layout.elements(), assets.orderedElements);
  }
  const int n = assets.mesh.numElements();
  ASSERT_EQ(static_cast<int>(assets.orderedIndexOf.size()), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(assets.orderedIndexOf[assets.orderedElements[i]], i);
  }
  // A repeated request returns the cached batching.
  EXPECT_EQ(assets.batchedAssets(8), b8);
}

// Both backends take every face's kind, neighbour, relation, aux index and
// scale from the face table, so no cross-backend suite can catch a wrong
// record: check each one against the mesh and cluster layout.
TEST(BatchedKernels, FaceTableMatchesMeshTopology) {
  const ScenarioBundle s = megathrustPreset();
  const SimulationAssets a(s.mesh, s.materials,
                           AssetConfig::fromSolverConfig(s.solver));
  const Mesh& mesh = a.mesh;
  const int n = mesh.numElements();
  ASSERT_EQ(a.faceTable.size(), static_cast<std::size_t>(n) * 4);
  std::vector<std::uint8_t> stackNeeded(n, 0);
  std::size_t gravity = 0, ruptureSides = 0, seafloor = 0, coarser = 0;
  for (int e = 0; e < n; ++e) {
    for (int f = 0; f < 4; ++f) {
      const FaceRecord& r =
          a.faceTable[static_cast<std::size_t>(a.orderedIndexOf[e]) * 4 + f];
      const FaceInfo& info = mesh.faces[e][f];
      EXPECT_EQ(r.scale, 2.0 * mesh.faceArea(e, f) / (6.0 * mesh.volume(e)));
      EXPECT_EQ(r.neighbor, info.neighbor);
      if (r.kind == FaceKind::kRegular) {
        ASSERT_GE(info.neighbor, 0);
        EXPECT_EQ(r.neighborFace, info.neighborFace);
        EXPECT_EQ(r.permutation, info.permutation);
        const int dc =
            a.clusters.cluster[info.neighbor] - a.clusters.cluster[e];
        EXPECT_EQ(r.relation, dc == 0 ? 0 : (dc > 0 ? 1 : 2));
        if (dc > 0) {
          stackNeeded[info.neighbor] = 1;
          ++coarser;
        }
      } else if (r.kind == FaceKind::kBoundaryFolded) {
        EXPECT_LT(info.neighbor, 0);
      } else if (r.kind == FaceKind::kGravity) {
        ASSERT_GE(r.aux, 0);
        EXPECT_EQ(a.gravityFaces[r.aux].elem, e);
        EXPECT_EQ(a.gravityFaces[r.aux].face, f);
        stackNeeded[e] = 1;
        ++gravity;
      } else {
        ASSERT_GE(r.aux, 0);
        const RuptureFaceRef& rf = a.ruptureFaces[r.aux];
        const bool minus = r.kind == FaceKind::kRuptureMinus;
        EXPECT_EQ(minus ? rf.elem : rf.neighbor, e);
        EXPECT_EQ(minus ? rf.face : rf.neighborFace, f);
        stackNeeded[e] = 1;
        ++ruptureSides;
      }
      if (r.seafloor >= 0) {
        EXPECT_EQ(a.seafloorGeometry[r.seafloor].elem, e);
        EXPECT_EQ(a.seafloorGeometry[r.seafloor].face, f);
        ++seafloor;
      }
    }
  }
  EXPECT_EQ(gravity, a.gravityFaces.size());
  EXPECT_EQ(ruptureSides, 2 * a.ruptureFaces.size());
  EXPECT_EQ(seafloor, a.seafloorGeometry.size());
  EXPECT_GT(gravity * ruptureSides * seafloor * coarser, 0u);
  EXPECT_EQ(stackNeeded, a.stackNeeded);
}

// Both backends read the same ordered operands; at a batch size other than
// the auto one (partial batches in every cluster) the batched path still
// reproduces the reference path's modal state bitwise.
TEST(BatchedKernels, NonDefaultBatchSizeBitwiseMatchesReference) {
  ThreadCountGuard guard;
  const auto ref = megathrustMini(KernelPath::kReference, 4);
  const auto bat = megathrustMini(KernelPath::kBatched, 4, 12);
  EXPECT_EQ(bat->batchLayout().batchSize(), 12);
  ASSERT_EQ(ref->dofsData().size(), bat->dofsData().size());
  EXPECT_EQ(0, std::memcmp(ref->dofsData().data(), bat->dofsData().data(),
                           ref->dofsData().size() * sizeof(real)));
  const auto sr = ref->seafloor();
  const auto sb = bat->seafloor();
  ASSERT_EQ(sr.size(), sb.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].uplift, sb[i].uplift);
  }
}

// The two paths traverse elements in different orders, but every element
// update writes disjoint state in a fixed operation order: the full DOF
// vectors agree bitwise after every macro step.
TEST(BatchedKernels, CoupledLayerDofsBitwiseMatchAcrossPaths) {
  ThreadCountGuard guard;
  omp_set_num_threads(8);
  const AnalyticCase c = coupledLayerModeCase(8);
  auto make = [&](KernelPath path) {
    SolverConfig cfg;
    cfg.degree = 2;
    cfg.gravity = 0;
    cfg.kernelPath = path;
    auto sim = std::make_unique<Simulation>(c.mesh, c.materials, cfg);
    sim->setInitialCondition(
        [&](const Vec3& x, int) { return c.exact(x, 0.0); });
    return sim;
  };
  auto ref = make(KernelPath::kReference);
  auto bat = make(KernelPath::kBatched);
  ASSERT_EQ(ref->macroDt(), bat->macroDt());
  for (int k = 1; k <= 4; ++k) {
    const real t = (k - 0.001) * ref->macroDt();
    ref->advanceTo(t);
    bat->advanceTo(t);
    ASSERT_EQ(ref->tick(), bat->tick());
    const auto& qr = ref->dofsData();
    const auto& qb = bat->dofsData();
    ASSERT_EQ(qr.size(), qb.size());
    ASSERT_EQ(0, std::memcmp(qr.data(), qb.data(), qr.size() * sizeof(real)))
        << "after macro step " << k;
  }
}

// Relayout property: gather followed by scatter restores every modal
// coefficient bitwise, including partial batches (width < batchSize) and
// values with tricky bit patterns (negative zero, denormal-scale).
TEST(BatchedKernels, GatherScatterRoundTripsBitwise) {
  const int nb = 10, width = 7, batchSize = 8;
  const int ld = 9 * batchSize;
  const std::size_t elemStride = static_cast<std::size_t>(nb) * 9;
  const int elems[width] = {4, 0, 9, 2, 7, 5, 11};
  std::vector<real> src(12 * elemStride);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = std::sin(0.1 * static_cast<real>(i)) * 1e-3;
  }
  src[4 * elemStride] = -0.0;        // sign of zero must survive
  src[9 * elemStride + 5] = 1e-300;  // as must tiny magnitudes
  std::vector<real> tile(static_cast<std::size_t>(nb) * ld, 99.0);
  gatherTile(src.data(), elems, width, nb, elemStride, ld, tile.data());
  // Spot-check the interleaved layout contract.
  EXPECT_EQ(tile[0 * ld + 9 * 0 + 0], src[4 * elemStride]);
  EXPECT_EQ(tile[3 * ld + 9 * 2 + 5], src[9 * elemStride + 3 * 9 + 5]);
  std::vector<real> dst(src.size(), 0.0);
  scatterTile(tile.data(), elems, width, nb, elemStride, ld, dst.data());
  for (int lane = 0; lane < width; ++lane) {
    const real* a = src.data() + elems[lane] * elemStride;
    const real* b = dst.data() + elems[lane] * elemStride;
    EXPECT_EQ(0, std::memcmp(a, b, elemStride * sizeof(real)))
        << "lane " << lane;
  }
  // Negative zero round-trips with its sign bit.
  EXPECT_TRUE(std::signbit(dst[4 * elemStride]));
}

TEST(BatchedKernels, AutoBatchSizeIsBoundedMultipleOf4) {
  for (int degree = 1; degree <= 5; ++degree) {
    for (int nb : {4, 10, 20, 35, 56}) {
      const int b = autoBatchSize(nb, degree);
      EXPECT_GE(b, 4);
      EXPECT_LE(b, 64);
      EXPECT_EQ(b % 4, 0);
    }
  }
}

// The lazily-built layout must partition the element set: every element
// exactly once, batches cluster-pure and within the batch size.
TEST(BatchedKernels, BatchLayoutPartitionsElements) {
  ThreadCountGuard guard;
  const auto sim = megathrustMini(KernelPath::kBatched, 4);
  const ClusterBatchLayout& layout = sim->batchLayout();
  const int n = sim->mesh().numElements();
  ASSERT_EQ(static_cast<int>(layout.elements().size()), n);
  std::vector<int> seen(n, 0);
  for (const int e : layout.elements()) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, n);
    ++seen[e];
  }
  for (int e = 0; e < n; ++e) {
    EXPECT_EQ(seen[e], 1) << "element " << e;
  }
  std::size_t covered = 0;
  for (const ElementBatch& b : layout.batches()) {
    EXPECT_GT(b.width, 0);
    EXPECT_LE(b.width, layout.batchSize());
    EXPECT_EQ(static_cast<std::size_t>(b.begin), covered);
    for (int lane = 0; lane < b.width; ++lane) {
      EXPECT_EQ(sim->clusters().cluster[layout.elements()[b.begin + lane]],
                b.cluster);
    }
    covered += b.width;
  }
  EXPECT_EQ(covered, layout.elements().size());
}

}  // namespace
}  // namespace tsg
