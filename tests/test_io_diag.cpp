#include <omp.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "geometry/mesh_builder.hpp"
#include "io/vtk_writer.hpp"
#include "kernels/reference_matrices.hpp"
#include "linking/kajiura.hpp"
#include "solver/diagnostics.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

/// Restores the global OpenMP thread count on scope exit.
struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

/// Coupled box, elastic below z = 0.5 and acoustic above, holding a seeded
/// smooth state: one random plane wave per quantity, so every basis mode
/// of every element carries a nonzero coefficient.
std::unique_ptr<Simulation> seededCoupledBox(int degree, unsigned seed) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 4);
  spec.material = [](const Vec3& c) { return c[2] > 0.5 ? 1 : 0; };
  SolverConfig cfg;
  cfg.degree = degree;
  cfg.gravity = 0;
  auto sim = std::make_unique<Simulation>(
      buildBoxMesh(spec),
      std::vector<Material>{Material::fromVelocities(2.7, 6.0, 3.5),
                            Material::acoustic(1.0, 1.5)},
      cfg);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real> u(-1.0, 1.0);
  std::array<real, kNumQuantities> amp{}, phase{};
  std::array<Vec3, kNumQuantities> k{};
  for (int p = 0; p < kNumQuantities; ++p) {
    amp[p] = u(rng);
    phase[p] = 3.0 * u(rng);
    k[p] = {4.0 * u(rng), 4.0 * u(rng), 4.0 * u(rng)};
  }
  sim->setInitialCondition([&](const Vec3& x, int) {
    std::array<real, kNumQuantities> q{};
    for (int p = 0; p < kNumQuantities; ++p) {
      q[p] = amp[p] * std::sin(dot(k[p], x) + phase[p]);
    }
    return q;
  });
  return sim;
}

TEST(Fft, RoundTripAndParseval) {
  std::vector<std::complex<real>> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::complex<real>(std::sin(0.3 * i), std::cos(0.7 * i));
  }
  const auto orig = a;
  real energyTime = 0;
  for (const auto& x : a) {
    energyTime += std::norm(x);
  }
  fft(a, false);
  real energyFreq = 0;
  for (const auto& x : a) {
    energyFreq += std::norm(x);
  }
  EXPECT_NEAR(energyFreq / a.size(), energyTime, 1e-10 * energyTime);
  fft(a, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - orig[i]), 0.0, 1e-12);
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<std::complex<real>> a(16, 0);
  a[0] = 1;
  fft(a, false);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-13);
    EXPECT_NEAR(x.imag(), 0.0, 1e-13);
  }
}

TEST(Kajiura, ConstantFieldInteriorInvariantWhenKernelIsNarrow) {
  // The Kajiura kernel width is ~ the water depth; for a patch much wider
  // than the depth the interior must be preserved (edges may dip where
  // the zero padding bleeds in).
  const int n = 24;
  std::vector<real> f(n * n, 2.5);
  const auto out = kajiuraFilter(f, n, n, 100.0, 100.0, 150.0);
  EXPECT_NEAR(out[(n / 2) * n + n / 2], 2.5, 0.05);
  // A deep-kernel filter legitimately spreads the finite patch out.
  const auto deep = kajiuraFilter(f, n, n, 100.0, 100.0, 1000.0);
  EXPECT_LT(deep[(n / 2) * n + n / 2], 2.5);
  EXPECT_GT(deep[(n / 2) * n + n / 2], 0.5);
}

TEST(Kajiura, SingleModeAttenuatedByCoshKh) {
  // A pure cosine of wavelength L over depth h must come back scaled by
  // ~1/cosh(2 pi h / L) in the interior.
  const int n = 64;
  const real dx = 250.0;
  const real wavelength = 8 * dx;  // 2000 m
  const real depth = 600.0;
  const real k = 2 * M_PI / wavelength;
  std::vector<real> f(n * n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      f[j * n + i] = std::cos(k * i * dx);
    }
  }
  const auto out = kajiuraFilter(f, n, n, dx, dx, depth);
  const real expected = 1.0 / std::cosh(k * depth);
  // Compare at an interior crest (i = 32 is a multiple of the wavelength).
  const int i = 32, j = 32;
  EXPECT_NEAR(out[j * n + i], f[j * n + i] * expected,
              0.15 * std::abs(f[j * n + i] * expected) + 0.01);
}

TEST(Kajiura, ShortWavelengthsSuppressedMoreThanLong) {
  const int n = 64;
  const real dx = 100.0;
  const real depth = 1500.0;
  auto amplitudeAfter = [&](real wavelength) {
    const real k = 2 * M_PI / wavelength;
    std::vector<real> f(n * n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        f[j * n + i] = std::cos(k * i * dx);
      }
    }
    const auto out = kajiuraFilter(f, n, n, dx, dx, depth);
    real m = 0;
    for (int i = 16; i < 48; ++i) {
      m = std::max(m, std::abs(out[32 * n + i]));
    }
    return m;
  };
  const real longWave = amplitudeAfter(32 * dx);
  const real shortWave = amplitudeAfter(8 * dx);
  EXPECT_GT(longWave, 4 * shortWave);
}

TEST(Vtk, WritesWellFormedFiles) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 2);
  const Mesh mesh = buildBoxMesh(spec);
  std::map<std::string, std::vector<real>> data;
  data["material"] = std::vector<real>(mesh.numElements(), 1.0);
  const std::string path = "/tmp/tsg_test_mesh.vtk";
  writeVtkMesh(path, mesh, data);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("POINTS 27 double"), std::string::npos);
  EXPECT_NE(body.find("CELLS 48 240"), std::string::npos);
  EXPECT_NE(body.find("SCALARS material double 1"), std::string::npos);
  std::remove(path.c_str());
  // Size mismatch must throw.
  data["bad"] = {1.0};
  EXPECT_THROW(writeVtkMesh(path, mesh, data), std::invalid_argument);
}

TEST(Vtk, SurfaceFile) {
  const std::vector<SurfaceSample> samples = {{0, 0, 0.1}, {1, 0, -0.2},
                                              {0, 1, 0.3}};
  const std::string path = "/tmp/tsg_test_surface.vtk";
  writeVtkSurface(path, samples);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("POINTS 3 double"), std::string::npos);
  EXPECT_NE(body.find("SCALARS eta double 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Energy, HydrostaticReductionForIsotropicStress) {
  // For isotropic stress the elastic strain energy density must equal
  // p^2 / (2K): verified through computeEnergy on a uniform state.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 2);
  spec.yLines = uniformLine(0, 1, 2);
  spec.zLines = uniformLine(0, 1, 2);
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  const Material m = Material::fromVelocities(2.0, 2.0, 1.0);
  Simulation sim(buildBoxMesh(spec), {m}, cfg);
  const real p = 3.0;
  sim.setInitialCondition([&](const Vec3&, int) {
    std::array<real, 9> q{};
    q[kSxx] = q[kSyy] = q[kSzz] = -p;
    return q;
  });
  const EnergyBudget e = computeEnergy(sim);
  const real bulk = m.lambda + 2.0 * m.mu / 3.0;
  EXPECT_NEAR(e.strainElastic, p * p / (2 * bulk), 1e-10);
  EXPECT_NEAR(e.kinetic, 0.0, 1e-14);
}

TEST(Energy, ClosedBoxConservesEnergyUpToUpwindDissipation) {
  // Rigid-wall box: the DG scheme may only *dissipate* total energy.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 3);
  spec.yLines = uniformLine(0, 1, 3);
  spec.zLines = uniformLine(0, 1, 3);
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kRigidWall;
  };
  SolverConfig cfg;
  cfg.degree = 3;
  cfg.gravity = 0;
  Simulation sim(buildBoxMesh(spec), {Material::fromVelocities(2, 2, 1)}, cfg);
  const real k = 2 * M_PI;
  sim.setInitialCondition([&](const Vec3& x, int) {
    std::array<real, 9> q{};
    q[kSxx] = 3.2 * k * std::cos(k * x[0]);
    q[kSyy] = 1.2 * k * std::cos(k * x[0]);
    q[kSzz] = q[kSyy];
    return q;
  });
  const real e0 = computeEnergy(sim).total();
  real prev = e0;
  for (int s = 1; s <= 4; ++s) {
    sim.advanceTo(0.1 * s);
    const real e = computeEnergy(sim).total();
    EXPECT_LE(e, prev * (1 + 1e-10)) << "energy grew at step " << s;
    prev = e;
  }
  // Smooth field at order 3: dissipation must be small.
  EXPECT_GT(prev, 0.9 * e0);
}

/// Pointwise oracle: the energy quadrature written directly on
/// Simulation::evaluate at every volume quadrature point.
EnergyBudget pointwiseEnergy(const Simulation& sim) {
  const auto& rm = referenceMatrices(sim.config().degree);
  const Mesh& mesh = sim.mesh();
  EnergyBudget e;
  for (int elem = 0; elem < mesh.numElements(); ++elem) {
    const Material& m = sim.materialOf(elem);
    const real jac = 6.0 * mesh.volume(elem);
    real kin = 0, strain = 0;
    for (std::size_t i = 0; i < rm.volQuadXi.size(); ++i) {
      const auto q = sim.evaluate(elem, rm.volQuadXi[i]);
      const real w = rm.volQuadW[i] * jac;
      kin += w * 0.5 * m.rho *
             (q[kVx] * q[kVx] + q[kVy] * q[kVy] + q[kVz] * q[kVz]);
      if (m.isAcoustic()) {
        const real p = -(q[kSxx] + q[kSyy] + q[kSzz]) / 3.0;
        strain += w * p * p / (2.0 * m.lambda);
      } else {
        const real tr = q[kSxx] + q[kSyy] + q[kSzz];
        const real ss = q[kSxx] * q[kSxx] + q[kSyy] * q[kSyy] +
                        q[kSzz] * q[kSzz] +
                        2.0 * (q[kSxy] * q[kSxy] + q[kSyz] * q[kSyz] +
                               q[kSxz] * q[kSxz]);
        strain += w / (4.0 * m.mu) *
                  (ss - m.lambda / (3.0 * m.lambda + 2.0 * m.mu) * tr * tr);
      }
    }
    e.kinetic += kin;
    if (m.isAcoustic()) {
      e.strainAcoustic += strain;
    } else {
      e.strainElastic += strain;
    }
  }
  return e;
}

TEST(Energy, TabulatedPassMatchesPointwiseOracleBitwise) {
  // computeEnergy reads the tabulated basis and sums per-element partials
  // in element order, so it must reproduce the pointwise formula exactly,
  // at any thread count.
  ThreadCountGuard guard;
  for (int degree : {2, 3}) {
    const auto sim = seededCoupledBox(degree, 20u + degree);
    const EnergyBudget want = pointwiseEnergy(*sim);
    ASSERT_GT(want.kinetic, 0);
    ASSERT_GT(want.strainElastic, 0);
    ASSERT_GT(want.strainAcoustic, 0);
    const real wantParts[3] = {want.kinetic, want.strainElastic,
                               want.strainAcoustic};
    for (int threads : {1, 2, 4}) {
      omp_set_num_threads(threads);
      const EnergyBudget got = computeEnergy(*sim);
      const real gotParts[3] = {got.kinetic, got.strainElastic,
                                got.strainAcoustic};
      EXPECT_EQ(0, std::memcmp(gotParts, wantParts, sizeof gotParts))
          << "degree " << degree << ", " << threads << " threads: "
          << got.kinetic << " " << got.strainElastic << " "
          << got.strainAcoustic << " vs " << want.kinetic << " "
          << want.strainElastic << " " << want.strainAcoustic;
    }
  }
}

TEST(Vtk, WavefieldCellsMatchEvaluateAtCentroidBitwise) {
  static const char* kNames[kNumQuantities] = {
      "sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz"};
  for (int degree : {2, 3}) {
    const auto sim = seededCoupledBox(degree, 40u + degree);
    const auto cells = wavefieldCellData(*sim);
    ASSERT_EQ(cells.size(), static_cast<std::size_t>(kNumQuantities + 1));
    int mismatches = 0;
    for (int e = 0; e < sim->mesh().numElements(); ++e) {
      const auto v = sim->evaluate(e, {0.25, 0.25, 0.25});
      for (int q = 0; q < kNumQuantities; ++q) {
        mismatches +=
            std::memcmp(&cells.at(kNames[q])[e], &v[q], sizeof(real)) != 0;
      }
      const real pressure = -(v[kSxx] + v[kSyy] + v[kSzz]) / 3.0;
      mismatches +=
          std::memcmp(&cells.at("pressure")[e], &pressure, sizeof(real)) != 0;
    }
    EXPECT_EQ(mismatches, 0) << "degree " << degree;
  }
}

TEST(Config, ParsesTypesAndTracksUnused) {
  const ConfigFile cfg = ConfigFile::parse(R"(
# comment
scenario = palu   # trailing comment
degree = 3
end_time = 12.5
vtk_output = ON
typo_key = 7
)");
  EXPECT_EQ(cfg.getString("scenario", "x"), "palu");
  EXPECT_EQ(cfg.getInt("degree", 0), 3);
  EXPECT_NEAR(cfg.getNumber("end_time", 0), 12.5, 1e-15);
  EXPECT_TRUE(cfg.getBool("vtk_output", false));
  EXPECT_FALSE(cfg.getBool("missing", false));
  const auto unused = cfg.unusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(*unused.begin(), "typo_key");
}

TEST(Config, RejectsMalformedInput) {
  EXPECT_THROW(ConfigFile::parse("novalue\n"), ConfigError);
  EXPECT_THROW(ConfigFile::parse("= 3\n"), ConfigError);
  const ConfigFile cfg = ConfigFile::parse("a = abc\nb = maybe\n");
  EXPECT_THROW(cfg.getNumber("a", 0), ConfigError);
  EXPECT_THROW(cfg.getBool("b", false), ConfigError);
  EXPECT_THROW(ConfigFile::load("/nonexistent/path.cfg"), ConfigError);
}

TEST(Config, RejectsTrailingGarbageAndNonFiniteNumbers) {
  // "10.0abc" must be a hard error, not strtod-style silent truncation
  // to 10.0 -- a typoed end_time would otherwise change the run silently.
  const ConfigFile cfg = ConfigFile::parse(
      "end_time = 10.0abc\nt2 = 1e3x\nn = nan\ni = inf\no = 1e999\nok = "
      "2.5\n");
  EXPECT_THROW(cfg.getNumber("end_time", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("t2", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("n", 0), ConfigError);   // non-finite spelling
  EXPECT_THROW(cfg.getNumber("i", 0), ConfigError);
  EXPECT_THROW(cfg.getNumber("o", 0), ConfigError);   // overflow to inf
  EXPECT_EQ(cfg.getNumber("ok", 0), 2.5);
}

TEST(Config, GetIntRejectsFractionalValues) {
  const ConfigFile cfg = ConfigFile::parse("degree = 2.5\nsnapshots = 4\n");
  EXPECT_THROW(cfg.getInt("degree", 0), ConfigError);  // not truncated to 2
  EXPECT_EQ(cfg.getInt("snapshots", 0), 4);
  EXPECT_EQ(cfg.getInt("missing", 7), 7);
}

TEST(Receivers, WriteCsvThrowsIoErrorOnUnwritablePath) {
  Receiver r;
  r.name = "x";
  r.times = {0.0, 0.1};
  r.samples = {{}, {}};
  // Previously this silently discarded the whole series.
  EXPECT_THROW(r.writeCsv("/nonexistent-dir/sub/x.csv"), IoError);
}

}  // namespace
}  // namespace tsg
