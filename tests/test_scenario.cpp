// Scenario-level checks on the shipped megathrust and Palu presets (the
// paper's Sec. 6.1 and 6.2 workloads), plus the analytic coupled
// solid/fluid eigenmode used by the convergence benches.

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/table.hpp"
#include "physics/jacobians.hpp"
#include "scenario/plane_wave.hpp"
#include "scenario/spec.hpp"

namespace tsg {
namespace {

ScenarioSpec presetSpec(const std::string& name) {
  return loadScenarioSpec(
      ConfigFile::load(std::string(TSG_PRESET_DIR) + "/" + name + ".cfg"));
}

TEST(MegathrustPreset, MeshAndFaultGeometry) {
  const ScenarioSpec spec = presetSpec("megathrust");
  const ScenarioBundle s = buildScenario(spec, 2);
  EXPECT_EQ(s.mesh.validate(), "");

  int faultFaces = 0;
  int gravityFaces = 0;
  const real diag = 1.0 / std::sqrt(2.0);
  const real planeOffset = spec.fault.segments.front().offset;
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    for (int f = 0; f < 4; ++f) {
      const auto& info = s.mesh.faces[e][f];
      if (info.bc == BoundaryType::kDynamicRupture) {
        ++faultFaces;
        // Fault faces must lie exactly on the 45-degree plane, which
        // meets the seafloor (z = -2000) at x = 0.
        const Vec3 c = s.mesh.faceCentroid(e, f);
        EXPECT_NEAR(c[0] - c[2], planeOffset, 1e-6);
        const Vec3 n = s.mesh.faceNormal(e, f);
        EXPECT_NEAR(std::abs(n[0] - n[2]) * diag, 1.0, 1e-9);
        // Both sides elastic.
        EXPECT_EQ(s.mesh.elements[e].material, 0);
        EXPECT_EQ(s.mesh.elements[info.neighbor].material, 0);
      }
      if (info.bc == BoundaryType::kGravityFreeSurface) {
        ++gravityFaces;
        EXPECT_EQ(s.mesh.elements[e].material, 1);  // acoustic on top
      }
    }
  }
  EXPECT_GT(faultFaces, 20);
  EXPECT_GT(gravityFaces, 20);
  // Expected fault area: alongStrike x downDip * sqrt(2) (45-degree dip)
  // for the 12 km x 9 km fault.
  real area = 0;
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    for (int f = 0; f < 4; ++f) {
      if (s.mesh.faces[e][f].bc == BoundaryType::kDynamicRupture) {
        area += s.mesh.faceArea(e, f);
      }
    }
  }
  area /= 2;  // counted from both sides
  const real expected = 12000.0 * 9000.0 * std::sqrt(2.0);
  EXPECT_NEAR(area, expected, 0.35 * expected);
}

TEST(MegathrustPreset, DryVariantHasNoOcean) {
  // The earthquake-only model of the one-way linked branch: no water
  // column, traction-free seafloor, no gravity.
  ScenarioSpec spec = presetSpec("megathrust");
  spec.mesh.z.pop_back();
  spec.boundary.top = BoundaryType::kFreeSurface;
  spec.gravity = 0;
  spec.receivers.clear();
  const ScenarioBundle s = buildScenario(spec, 2);
  int faultFaces = 0;
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    EXPECT_EQ(s.mesh.elements[e].material, 0);
    for (int f = 0; f < 4; ++f) {
      EXPECT_NE(s.mesh.faces[e][f].bc, BoundaryType::kGravityFreeSurface);
      faultFaces += s.mesh.faces[e][f].bc == BoundaryType::kDynamicRupture;
    }
  }
  EXPECT_GT(faultFaces, 20);
}

TEST(MegathrustPreset, FaultInitNucleationPatch) {
  const ScenarioSpec spec = presetSpec("megathrust");
  const ScenarioBundle s = buildScenario(spec, 2);
  const Vec3 n = {1 / std::sqrt(2.0), 0, -1 / std::sqrt(2.0)};
  Vec3 t1, t2;
  faceBasis(n, t1, t2);
  // Mid-depth point at the nucleation centre, on the plane x - z = 2000:
  // overstressed.
  const NucleationSpec& patch = spec.fault.nucleation.front();
  const Vec3 centre{patch.centerZ + 2000.0, patch.centerY, patch.centerZ};
  const FaultPointInit atCentre = s.faultInit(centre, n, t1, t2);
  EXPECT_NEAR(std::hypot(atCentre.tau10, atCentre.tau20), patch.tau,
              1e-6 * patch.tau);
  // Far point along strike: background.
  Vec3 far = centre;
  far[1] = 6000.0 - 500.0;
  const FaultPointInit atFar = s.faultInit(far, n, t1, t2);
  EXPECT_NEAR(std::hypot(atFar.tau10, atFar.tau20), spec.fault.tauBackground,
              1e-6 * spec.fault.tauBackground);
  // Near-seafloor point: strong cohesion.
  Vec3 shallow = centre;
  shallow[2] = -2000.0 - 200.0;
  shallow[0] = shallow[2] + 2000.0;
  const FaultPointInit atTop = s.faultInit(shallow, n, t1, t2);
  EXPECT_GT(atTop.lsw.cohesion, 10e6);
  EXPECT_LT(atFar.lsw.cohesion + 1.0, atTop.lsw.cohesion);
}

TEST(PaluPreset, MeshBathymetryAndFault) {
  const ScenarioSpec spec = presetSpec("palu");
  const ScenarioBundle s = buildScenario(spec, 2);
  EXPECT_EQ(s.mesh.validate(), "");

  // Bathymetry: deep (700 m) in the bay, shallow (200 m) on the shelf.
  const BathymetryField bathy(spec.bathymetry.baseDepth,
                              spec.bathymetry.combine,
                              spec.bathymetry.features);
  EXPECT_LT(bathy.z(0.0, -12000.0), -0.8 * 700.0);
  EXPECT_GT(bathy.z(15000.0, -12000.0), -1.5 * 200.0);
  // Everything stays under water (clamped-minimum-depth substitution).
  for (real x : {-15000.0, 0.0, 15000.0}) {
    for (real y : {-30000.0, -10000.0, 0.0, 25000.0}) {
      EXPECT_LT(bathy.z(x, y), 0.0);
    }
  }

  // Both segments (x = -2000 north, x = +2000 south) are populated.
  int seg1 = 0, seg2 = 0;
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    for (int f = 0; f < 4; ++f) {
      if (s.mesh.faces[e][f].bc != BoundaryType::kDynamicRupture) {
        continue;
      }
      const Vec3 c = s.mesh.faceCentroid(e, f);
      if (std::abs(c[0] - spec.fault.segments[0].offset) < 1.0) {
        ++seg1;
      } else if (std::abs(c[0] - spec.fault.segments[1].offset) < 1.0) {
        ++seg2;
      } else {
        ADD_FAILURE() << "fault face off both segments at x=" << c[0];
      }
      EXPECT_EQ(s.mesh.elements[e].material, 0);
    }
  }
  EXPECT_GT(seg1, 10);
  EXPECT_GT(seg2, 10);
}

TEST(PaluPreset, StrikeSlipLoading) {
  const ScenarioSpec spec = presetSpec("palu");
  const ScenarioBundle s = buildScenario(spec, 2);
  const Vec3 n{1, 0, 0};
  Vec3 t1, t2;
  faceBasis(n, t1, t2);
  const Vec3 x{spec.fault.segments[0].offset, 0.0, -6000.0};
  const FaultPointInit fp = s.faultInit(x, n, t1, t2);
  // Traction is horizontal along strike: reconstruct the vector.
  const Vec3 tau = {fp.tau10 * t1[0] + fp.tau20 * t2[0],
                    fp.tau10 * t1[1] + fp.tau20 * t2[1],
                    fp.tau10 * t1[2] + fp.tau20 * t2[2]};
  const real tau0 = spec.fault.tauBackground;
  EXPECT_NEAR(tau[0], 0.0, 1e-6);
  EXPECT_NEAR(tau[2], 0.0, 1e-6);
  EXPECT_NEAR(std::abs(tau[1]), tau0, 1e-6 * tau0);
  // Stress ratio admits supershear: S = (tau_s - tau0)/(tau0 - tau_d) with
  // RS steady strength ~ f0 * sigma_n.
  const real strength = spec.fault.rsF0 * (-spec.fault.sigmaN);
  const real dynamic = spec.fault.rsFw * (-spec.fault.sigmaN);
  const real sRatio = (strength - tau0) / (tau0 - dynamic);
  EXPECT_LT(sRatio, 1.77);  // Burridge-Andrews supershear criterion
}

TEST(CoupledMode, DispersionRootSolvesEquation) {
  const Material solid = Material::fromVelocities(2.5, 2.0, 1.1);
  const Material fluid = Material::acoustic(1.0, 1.0);
  const real a = 0.6, b = 0.4;
  const real w = coupledModeFrequency(solid, fluid, a, b);
  EXPECT_GT(w, 0);
  const real lhs = solid.zP() / std::tan(w * a / solid.pWaveSpeed());
  const real rhs = fluid.zP() * std::tan(w * b / fluid.pWaveSpeed());
  EXPECT_NEAR(lhs, rhs, 1e-8 * (std::abs(lhs) + 1));
}

TEST(CoupledMode, ExactSolutionSatisfiesInterfaceConditions) {
  const AnalyticCase c = coupledLayerModeCase(10);
  // Traction and normal velocity continuous at z = 0 for several times.
  for (real t : {0.0, 0.13, 0.31, 0.77}) {
    const auto below = c.exact({0.25, 0.25, -1e-9}, t);
    const auto above = c.exact({0.25, 0.25, +1e-9}, t);
    EXPECT_NEAR(below[kSzz], above[kSzz], 1e-6 * (1 + std::abs(below[kSzz])));
    EXPECT_NEAR(below[kVz], above[kVz], 1e-6 * (1 + std::abs(below[kVz])));
  }
  // Fluid pressure vanishes at the free surface.
  const auto top = c.exact({0.25, 0.25, 0.4}, 0.37);
  EXPECT_NEAR(top[kSxx], 0.0, 1e-9);
}

TEST(CoupledMode, SimulationTracksAnalyticSolution) {
  const AnalyticCase c = coupledLayerModeCase(15);
  SolverConfig cfg;
  cfg.degree = 3;
  cfg.gravity = 0;
  Simulation sim(c.mesh, c.materials, cfg);
  sim.setInitialCondition([&](const Vec3& x, int) { return c.exact(x, 0.0); });
  sim.advanceTo(0.3);
  EXPECT_LT(solutionError(sim, c, sim.time()), 2e-3);
}

TEST(TableUtility, FormatsAndWritesCsv) {
  Table t({"a", "b"});
  t.row() << "x" << 1.5;
  t.row() << 7 << "y";
  const std::string path = "/tmp/tsg_table_test.csv";
  t.writeCsv(path);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "a,b\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "x,1.5\n");
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsg
