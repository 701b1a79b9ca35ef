// Reproducibility and thread-safety of the LTS stepping loops:
//  * thread-local scratch survives OpenMP thread-count changes made after
//    Simulation construction (previously out-of-bounds),
//  * every run produces bitwise-identical receiver output across thread
//    counts (the megathrust mini-scenario acceptance check),
//  * invalid LTS rates are rejected up front.

#include <omp.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

/// Restores the global OpenMP thread count on scope exit.
struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

Mesh twoLayerMesh() {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 3);
  spec.yLines = uniformLine(0, 1, 3);
  spec.zLines = {0.0, 0.3, 0.6, 0.8, 0.9, 1.0};
  spec.material = [](const Vec3& c) { return c[2] > 0.6 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kAbsorbing;
  };
  return buildBoxMesh(spec);
}

std::vector<Material> twoLayerMaterials() {
  return {Material::fromVelocities(2.0, 6.0, 3.0),
          Material::fromVelocities(1.5, 1.5, 0.8)};
}

TEST(Determinism, ThreadScratchSurvivesThreadCountGrowth) {
  ThreadCountGuard guard;
  // Construct with a deliberately small thread pool, then grow it before
  // stepping: the per-thread scratch must follow the actual thread count.
  omp_set_num_threads(1);
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  Simulation sim(twoLayerMesh(), twoLayerMaterials(), cfg);
  ASSERT_GE(sim.clusters().numClusters, 2);
  sim.setInitialCondition([](const Vec3& x, int) {
    std::array<real, 9> q{};
    q[kVx] = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.5}) / 0.05);
    return q;
  });
  omp_set_num_threads(8);
  sim.advanceTo(5 * sim.macroDt());
  const auto v = sim.evaluateAt({0.5, 0.5, 0.5});
  for (int q = 0; q < kNumQuantities; ++q) {
    EXPECT_TRUE(std::isfinite(v[q]));
  }
}

std::unique_ptr<Simulation> megathrustMini(int threads) {
  omp_set_num_threads(threads);
  const ScenarioBundle bundle =
      loadPresetScenario(std::string(TSG_PRESET_DIR) + "/megathrust.cfg", 2);
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

TEST(Determinism, MegathrustReceiversBitwiseReproducibleAcrossThreadCounts) {
  ThreadCountGuard guard;
  // One serial baseline, compared bitwise against every threaded run: the
  // persistent parallel region's work slicing must never leak into the
  // numbers (OMP_NUM_THREADS in {1, 2, 4} per the acceptance criterion).
  const auto a = megathrustMini(1);
  const auto sa = a->seafloor();
  for (const int threads : {2, 4}) {
    const auto b = megathrustMini(threads);
    ASSERT_EQ(a->numReceivers(), b->numReceivers());
    for (int r = 0; r < a->numReceivers(); ++r) {
      const Receiver& ra = a->receiver(r);
      const Receiver& rb = b->receiver(r);
      ASSERT_EQ(ra.samples.size(), rb.samples.size());
      ASSERT_FALSE(ra.samples.empty());
      for (std::size_t i = 0; i < ra.samples.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(&ra.samples[i], &rb.samples[i],
                                 sizeof(ra.samples[i])))
            << "threads " << threads << " receiver " << r << " sample " << i;
        EXPECT_EQ(ra.times[i], rb.times[i]);
      }
      // The acceptance criterion speaks in terms of CSV files: compare
      // those byte-for-byte as well.
      const std::string pa = "det_t1_" + ra.name + ".csv";
      const std::string pb =
          "det_t" + std::to_string(threads) + "_" + rb.name + ".csv";
      ra.writeCsv(pa);
      rb.writeCsv(pb);
      const std::string ba = fileBytes(pa);
      EXPECT_FALSE(ba.empty());
      EXPECT_EQ(ba, fileBytes(pb)) << "threads " << threads;
      std::remove(pa.c_str());
      std::remove(pb.c_str());
    }
    // The runs also agree on the seafloor uplift accumulators.
    const auto sb = b->seafloor();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].uplift, sb[i].uplift) << "threads " << threads;
    }
  }
}

TEST(Determinism, InvalidLtsRateIsRejected) {
  for (int rate : {0, -1, -7}) {
    SolverConfig cfg;
    cfg.degree = 1;
    cfg.gravity = 0;
    cfg.ltsRate = rate;
    EXPECT_THROW(Simulation(twoLayerMesh(), twoLayerMaterials(), cfg),
                 std::invalid_argument)
        << "rate " << rate;
  }
}

}  // namespace
}  // namespace tsg
