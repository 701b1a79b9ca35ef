#include <omp.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

/// Three-layer medium with an ~8x wave-speed spread: produces >= 3 LTS
/// clusters and exercises both buffer directions across two levels.
Mesh threeLayerMesh() {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 3);
  spec.yLines = uniformLine(0, 1, 3);
  spec.zLines = {0.0, 0.25, 0.5, 0.7, 0.85, 0.93, 1.0};
  spec.material = [](const Vec3& c) {
    if (c[2] > 0.85) {
      return 2;
    }
    return c[2] > 0.5 ? 1 : 0;
  };
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kAbsorbing;
  };
  return buildBoxMesh(spec);
}

std::vector<Material> threeLayerMaterials() {
  return {Material::fromVelocities(2.0, 8.0, 4.0),
          Material::fromVelocities(1.5, 3.0, 1.6), Material::acoustic(1.0, 1.0)};
}

TEST(LtsDeep, ThreeClustersMatchGts) {
  const Mesh mesh = threeLayerMesh();
  const auto mats = threeLayerMaterials();
  auto makeSim = [&](int rate) {
    SolverConfig cfg;
    cfg.degree = 3;
    cfg.gravity = 0;
    cfg.ltsRate = rate;
    auto sim = std::make_unique<Simulation>(mesh, mats, cfg);
    sim->setInitialCondition([](const Vec3& x, int) {
      std::array<real, 9> q{};
      const real g = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.6}) / 0.03);
      q[kSxx] = q[kSyy] = q[kSzz] = g;
      q[kVz] = 0.3 * g;
      return q;
    });
    return sim;
  };
  auto lts = makeSim(2);
  ASSERT_GE(lts->clusters().numClusters, 3);
  auto gts = makeSim(1);
  lts->advanceTo(0.12);
  gts->advanceTo(lts->time());
  real maxDiff = 0, maxVal = 0;
  for (const Vec3 p :
       {Vec3{0.5, 0.5, 0.3}, Vec3{0.5, 0.5, 0.6}, Vec3{0.4, 0.6, 0.78},
        Vec3{0.55, 0.35, 0.9}, Vec3{0.5, 0.5, 0.97}}) {
    const auto a = lts->evaluateAt(p);
    const auto b = gts->evaluateAt(p);
    for (int q = 0; q < 9; ++q) {
      maxDiff = std::max(maxDiff, std::abs(a[q] - b[q]));
      maxVal = std::max(maxVal, std::abs(b[q]));
    }
  }
  EXPECT_LT(maxDiff, 8e-3 * maxVal);
}

TEST(LtsDeep, ThreeClusterReceiverSeriesMatchesGts) {
  // Receiver time series probe the LTS buffer accumulate/reset logic and
  // the coarser-neighbour sub-interval offsets continuously in time, not
  // just at the final state.
  const Mesh mesh = threeLayerMesh();
  const auto mats = threeLayerMaterials();
  auto run = [&](int rate) {
    SolverConfig cfg;
    cfg.degree = 3;
    cfg.gravity = 0;
    cfg.ltsRate = rate;
    auto sim = std::make_unique<Simulation>(mesh, mats, cfg);
    sim->setInitialCondition([](const Vec3& x, int) {
      std::array<real, 9> q{};
      const real g = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.6}) / 0.03);
      q[kSxx] = q[kSyy] = q[kSzz] = g;
      q[kVz] = 0.3 * g;
      return q;
    });
    sim->addReceiver("deep", {0.5, 0.5, 0.3});
    sim->addReceiver("mid", {0.4, 0.6, 0.78});
    sim->addReceiver("shallow", {0.5, 0.5, 0.95});
    sim->advanceTo(0.12);
    return sim;
  };
  auto lts = run(2);
  ASSERT_GE(lts->clusters().numClusters, 3);
  auto gts = run(1);
  for (int r = 0; r < lts->numReceivers(); ++r) {
    const Receiver& a = lts->receiver(r);
    const Receiver& b = gts->receiver(r);
    ASSERT_FALSE(a.samples.empty());
    ASSERT_FALSE(b.samples.empty());
    // Compare at the end of the common time range (the series have
    // different sampling cadences under LTS vs GTS).
    real maxVal = 0;
    for (const auto& s : b.samples) {
      for (int q = 0; q < 9; ++q) {
        maxVal = std::max(maxVal, std::abs(s[q]));
      }
    }
    const auto& sa = a.samples.back();
    const auto& sb = b.samples.back();
    EXPECT_NEAR(a.times.back(), b.times.back(), 1e-12);
    for (int q = 0; q < 9; ++q) {
      EXPECT_NEAR(sa[q], sb[q], 2e-2 * maxVal)
          << a.name << " quantity " << q;
    }
  }
}

TEST(LtsDeep, Rate4MatchesGts) {
  // General (non-2) rates exercise the generalised span arithmetic: the
  // r-sub-interval buffer accumulation and the modulo offsets into a
  // coarser neighbour's Taylor expansion.
  const Mesh mesh = threeLayerMesh();
  const auto mats = threeLayerMaterials();
  auto makeSim = [&](int rate) {
    SolverConfig cfg;
    cfg.degree = 3;
    cfg.gravity = 0;
    cfg.ltsRate = rate;
    auto sim = std::make_unique<Simulation>(mesh, mats, cfg);
    sim->setInitialCondition([](const Vec3& x, int) {
      std::array<real, 9> q{};
      const real g = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.6}) / 0.03);
      q[kSxx] = q[kSyy] = q[kSzz] = g;
      q[kVz] = 0.3 * g;
      return q;
    });
    return sim;
  };
  auto lts = makeSim(4);
  ASSERT_GE(lts->clusters().numClusters, 2);
  EXPECT_EQ(lts->clusters().rate, 4);
  // One rate-4 coarse step covers four fine steps.
  EXPECT_EQ(lts->clusters().ticksPerMacro(),
            lts->clusters().spanOf(lts->clusters().numClusters - 1));
  auto gts = makeSim(1);
  lts->advanceTo(0.12);
  gts->advanceTo(lts->time());
  real maxDiff = 0, maxVal = 0;
  for (const Vec3 p :
       {Vec3{0.5, 0.5, 0.3}, Vec3{0.5, 0.5, 0.6}, Vec3{0.4, 0.6, 0.78},
        Vec3{0.55, 0.35, 0.9}, Vec3{0.5, 0.5, 0.97}}) {
    const auto a = lts->evaluateAt(p);
    const auto b = gts->evaluateAt(p);
    for (int q = 0; q < 9; ++q) {
      maxDiff = std::max(maxDiff, std::abs(a[q] - b[q]));
      maxVal = std::max(maxVal, std::abs(b[q]));
    }
  }
  EXPECT_LT(maxDiff, 8e-3 * maxVal);
}

TEST(LtsDeep, BatchedPipelineMatchesReferenceBitwiseAtRates2And4) {
  // The batched pipeline must reproduce the reference path's LTS
  // arithmetic exactly: buffer accumulate/reset at rate boundaries, the
  // coarser-neighbour sub-interval Taylor offsets, and the finer-neighbour
  // buffer reads -- at the generalised rate too, where the modulo span
  // arithmetic is least forgiving.  Rate 2 runs at every degree, since each
  // basis size has its own compile-time kernel instantiation.
  const Mesh mesh = threeLayerMesh();
  const auto mats = threeLayerMaterials();
  const std::pair<int, int> cases[] = {{1, 2}, {2, 2}, {3, 2},
                                       {3, 4}, {4, 2}, {5, 2}};
  for (const auto& [degree, rate] : cases) {
    auto run = [&](KernelPath path) {
      SolverConfig cfg;
      cfg.degree = degree;
      cfg.gravity = 0;
      cfg.ltsRate = rate;
      cfg.kernelPath = path;
      auto sim = std::make_unique<Simulation>(mesh, mats, cfg);
      sim->setInitialCondition([](const Vec3& x, int) {
        std::array<real, 9> q{};
        const real g = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.6}) / 0.03);
        q[kSxx] = q[kSyy] = q[kSzz] = g;
        q[kVz] = 0.3 * g;
        return q;
      });
      sim->advanceTo(2.999 * sim->macroDt());
      return sim;
    };
    auto ref = run(KernelPath::kReference);
    auto bat = run(KernelPath::kBatched);
    ASSERT_GE(ref->clusters().numClusters, 2);
    ASSERT_EQ(ref->tick(), bat->tick());
    const auto& qr = ref->dofsData();
    const auto& qb = bat->dofsData();
    ASSERT_EQ(qr.size(), qb.size());
    EXPECT_EQ(0, std::memcmp(qr.data(), qb.data(), qr.size() * sizeof(real)))
        << "degree " << degree << " rate " << rate;
  }
}

TEST(LtsDeep, Rate4ThreadedMatchesSerialBitwise) {
  // Cross-check the persistent-parallel-region scheduler against a serial
  // run at the generalised rate, where the wave/barrier schedule is least
  // forgiving: deep spans mean most ticks touch only the finest cluster,
  // so any misplaced barrier or wrong due-set shows up as a bitwise diff.
  const int saved = omp_get_max_threads();
  const Mesh mesh = threeLayerMesh();
  const auto mats = threeLayerMaterials();
  auto run = [&](int threads) {
    omp_set_num_threads(threads);
    SolverConfig cfg;
    cfg.degree = 3;
    cfg.gravity = 0;
    cfg.ltsRate = 4;
    auto sim = std::make_unique<Simulation>(mesh, mats, cfg);
    sim->setInitialCondition([](const Vec3& x, int) {
      std::array<real, 9> q{};
      const real g = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.6}) / 0.03);
      q[kSxx] = q[kSyy] = q[kSzz] = g;
      q[kVz] = 0.3 * g;
      return q;
    });
    sim->advanceTo(2.999 * sim->macroDt());
    return sim;
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  omp_set_num_threads(saved);
  ASSERT_GE(serial->clusters().numClusters, 2);
  ASSERT_EQ(serial->tick(), threaded->tick());
  const auto& qs = serial->dofsData();
  const auto& qt = threaded->dofsData();
  ASSERT_EQ(qs.size(), qt.size());
  EXPECT_EQ(0, std::memcmp(qs.data(), qt.data(), qs.size() * sizeof(real)));
}

TEST(LtsDeep, UpdateCountMatchesClusterHistogram) {
  const Mesh mesh = threeLayerMesh();
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  Simulation sim(mesh, threeLayerMaterials(), cfg);
  sim.setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  const auto& layout = sim.clusters();
  const auto hist = layout.histogram();
  // One macro cycle: cluster c updates 2^{cmax-c} times.
  sim.advanceTo(sim.macroDt() * 0.999);
  std::uint64_t expected = 0;
  for (int c = 0; c < layout.numClusters; ++c) {
    expected += static_cast<std::uint64_t>(hist[c])
                << (layout.numClusters - 1 - c);
  }
  EXPECT_EQ(sim.elementUpdates(), expected);
  // Two more macro cycles triple the count.
  sim.advanceTo(sim.macroDt() * 2.999);
  EXPECT_EQ(sim.elementUpdates(), 3 * expected);
}

TEST(LtsDeep, MacroCallbacksFireAtMacroBoundaries) {
  const Mesh mesh = threeLayerMesh();
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  Simulation sim(mesh, threeLayerMaterials(), cfg);
  sim.setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  std::vector<real> times;
  sim.onMacroStep([&](real t) { times.push_back(t); });
  sim.advanceTo(5.2 * sim.macroDt());
  ASSERT_EQ(times.size(), 6u);  // ceil(5.2) macro cycles
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], (i + 1) * sim.macroDt(), 1e-12);
  }
}

TEST(LtsDeep, EnergyDecaysInClosedAbsorbingDomain) {
  // A localized pulse in an absorbing box must monotonically lose energy
  // once the wavefront reaches the boundary (stability check under LTS).
  const Mesh mesh = threeLayerMesh();
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  Simulation sim(mesh, threeLayerMaterials(), cfg);
  sim.setInitialCondition([](const Vec3& x, int) {
    std::array<real, 9> q{};
    q[kVx] = std::exp(-norm2(x - Vec3{0.5, 0.5, 0.4}) / 0.02);
    return q;
  });
  auto stateNorm = [&]() {
    real acc = 0;
    for (const Vec3 p : {Vec3{0.5, 0.5, 0.4}, Vec3{0.3, 0.5, 0.6},
                         Vec3{0.7, 0.5, 0.2}}) {
      const auto v = sim.evaluateAt(p);
      for (int q = 0; q < 9; ++q) {
        acc += v[q] * v[q];
      }
    }
    return acc;
  };
  sim.advanceTo(1.0);
  const real late = stateNorm();
  sim.advanceTo(2.0);
  const real later = stateNorm();
  // No blow-up; the field decays (energy radiated out).
  EXPECT_LT(later, late + 1e-9);
  EXPECT_LT(later, 1.0);
}

TEST(LtsDeep, SolverRejectsBadConfigurations) {
  const Mesh mesh = threeLayerMesh();
  {
    // Out-of-range material id.
    Mesh bad = mesh;
    bad.elements[0].material = 7;
    SolverConfig cfg;
    cfg.degree = 1;
    EXPECT_THROW(Simulation(bad, threeLayerMaterials(), cfg),
                 std::out_of_range);
  }
  {
    SolverConfig cfg;
    cfg.degree = 2;
    Simulation sim(mesh, threeLayerMaterials(), cfg);
    EXPECT_THROW(sim.addReceiver("outside", {5.0, 5.0, 5.0}),
                 std::invalid_argument);
    EXPECT_THROW(sim.evaluateAt({-1.0, 0.0, 0.0}), std::invalid_argument);
  }
  {
    // Rupture faces without setupFault must be rejected at advance time.
    BoxMeshSpec spec;
    spec.xLines = uniformLine(0, 1, 2);
    spec.yLines = uniformLine(0, 1, 2);
    spec.zLines = uniformLine(0, 1, 2);
    spec.faultFace = [](const Vec3& c, const Vec3& n) {
      return std::abs(c[0] - 0.5) < 1e-9 && std::abs(std::abs(n[0]) - 1) < 1e-9;
    };
    SolverConfig cfg;
    cfg.degree = 1;
    cfg.gravity = 0;
    Simulation sim(buildBoxMesh(spec),
                   {Material::fromVelocities(1, 2, 1)}, cfg);
    sim.setInitialCondition([](const Vec3&, int) {
      return std::array<real, 9>{};
    });
    EXPECT_THROW(sim.advanceTo(0.01), std::logic_error);
  }
}

TEST(LtsDeep, GravityFacesInFineClustersStayStable) {
  // Thin shallow water cells put the gravity faces into the finest
  // cluster; a long (many macro cycles) run must stay bounded.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 2000, 4);
  spec.yLines = uniformLine(0, 2000, 4);
  spec.zLines = {-2000.0, -500.0, -100.0, -50.0, 0.0};
  spec.material = [](const Vec3& c) { return c[2] > -500.0 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kRigidWall;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  Simulation sim(buildBoxMesh(spec),
                 {Material::fromVelocities(2700, 6000, 3464),
                  Material::acoustic(1000, 1500)},
                 cfg);
  ASSERT_GE(sim.clusters().numClusters, 2);
  sim.setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  sim.initializeSeaSurface([](real x, real y) {
    return 0.05 * std::sin(M_PI * x / 2000.0) * std::sin(M_PI * y / 2000.0);
  });
  sim.advanceTo(2.0);
  real maxEta = 0;
  for (const auto& s : sim.seaSurface()) {
    maxEta = std::max(maxEta, std::abs(s.eta));
    EXPECT_TRUE(std::isfinite(s.eta));
  }
  EXPECT_LT(maxEta, 0.2);  // bounded (no instability)
  EXPECT_GT(maxEta, 1e-4);  // and not spuriously damped to zero
}

}  // namespace
}  // namespace tsg
