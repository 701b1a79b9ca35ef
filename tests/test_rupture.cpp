#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "rupture/friction.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

TEST(Friction, LswLockedBelowStrength) {
  LinearSlipWeakeningLaw law;
  law.muS = 0.6;
  law.muD = 0.2;
  law.dC = 0.4;
  real tau, v;
  solveFrictionLsw(law, 0.0, /*tauLock=*/5e6, /*sigmaN=*/-1e7, /*etaS=*/4e6,
                   tau, v);
  EXPECT_EQ(v, 0.0);
  EXPECT_EQ(tau, 5e6);
}

TEST(Friction, LswSlidingAboveStrength) {
  LinearSlipWeakeningLaw law;
  law.muS = 0.6;
  law.muD = 0.2;
  law.dC = 0.4;
  real tau, v;
  solveFrictionLsw(law, 0.0, /*tauLock=*/8e6, /*sigmaN=*/-1e7, /*etaS=*/4e6,
                   tau, v);
  EXPECT_NEAR(tau, 6e6, 1);  // static strength at zero slip
  EXPECT_NEAR(v, (8e6 - 6e6) / 4e6, 1e-9);
  // Fully weakened:
  solveFrictionLsw(law, 1.0, 8e6, -1e7, 4e6, tau, v);
  EXPECT_NEAR(tau, 2e6, 1);
  EXPECT_NEAR(v, 1.5, 1e-9);
}

TEST(Friction, LswNoStrengthInTension) {
  LinearSlipWeakeningLaw law;
  real tau, v;
  solveFrictionLsw(law, 0.0, 1e6, /*sigmaN=*/+1e6, 4e6, tau, v);
  EXPECT_EQ(tau, 0.0);
  EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Friction, RsNewtonSolvesResidual) {
  RateStateFastVWLaw law;
  const real psi = law.steadyStatePsi(1e-6);
  const real sigmaN = -120e6;
  const real etaS = 4.6e6;
  for (real tauLock : {60e6, 75e6, 90e6, 120e6}) {
    real tau, v;
    solveFrictionRs(law, psi, tauLock, sigmaN, etaS, tau, v);
    EXPECT_GE(v, 0.0);
    // The solution must satisfy both the radiation damping line and the
    // friction law simultaneously.
    EXPECT_NEAR(tau, tauLock - etaS * v, 1e-3 * tauLock);
    EXPECT_NEAR(tau, -sigmaN * law.frictionCoefficient(v, psi),
                1e-3 * tauLock);
  }
}

// The rate-and-state Newton loop as it read before exp(psi/a) was hoisted
// out of the iteration: f and df/dV each evaluated exp(psi/a).
void legacyRsNewton(const RateStateFastVWLaw& law, real psi, real tauLock,
                    real sigmaN, real etaS, real& tau, real& v) {
  const real sn = std::max(-sigmaN, real(0));
  if (sn <= 0) {
    tau = 0;
    v = tauLock / etaS;
    return;
  }
  real vi = 1e-9;
  for (int it = 0; it < 60; ++it) {
    const real g = tauLock - etaS * vi - sn * law.frictionCoefficient(vi, psi);
    const real e = std::exp(psi / law.a);
    const real x = vi / (2.0 * law.v0) * e;
    const real dfdv = law.a * e / (2.0 * law.v0 * std::sqrt(1.0 + x * x));
    const real dg = -etaS - sn * dfdv;
    real step = -g / dg;
    if (vi + step <= 0) {
      step = -0.5 * vi;
    }
    vi += step;
    if (std::abs(step) < 1e-12 * (1.0 + vi)) {
      break;
    }
  }
  v = std::max(vi, real(0));
  tau = std::max(tauLock - etaS * v, real(0));
}

TEST(Friction, RsNewtonBitwiseMatchesLegacyLoop) {
  // palu.cfg's law (the defaults), its background state (tau 11.5 MPa,
  // sigma_n -20 MPa, initial slip rate 1e-12), and a grid around it.
  RateStateFastVWLaw law;
  std::vector<real> psis = {law.initialPsi(11.5e6, -20e6, 1e-12)};
  for (real vRef : {1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0}) {
    psis.push_back(law.steadyStatePsi(vRef));
  }
  int cases = 0;
  for (real psi : psis) {
    for (real tauLock : {0.0, 1e5, 5e6, 11.5e6, 12.4e6, 20e6, 75e6}) {
      for (real sigmaN : {-20e6, -120e6, -1e5, 0.0, 1e6}) {
        for (real etaS : {2.3e6, 4.6e6, 9.2e6}) {
          real tau = 0, v = 0, tauRef = 0, vRef = 0;
          solveFrictionRs(law, psi, tauLock, sigmaN, etaS, tau, v);
          legacyRsNewton(law, psi, tauLock, sigmaN, etaS, tauRef, vRef);
          const real got[2] = {tau, v};
          const real want[2] = {tauRef, vRef};
          EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
              << "psi " << psi << " tauLock " << tauLock << " sigmaN "
              << sigmaN << " etaS " << etaS << ": (" << tau << ", " << v
              << ") vs (" << tauRef << ", " << vRef << ")";
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 8 * 7 * 5 * 3);
}

TEST(Friction, RsSteadyStateConsistency) {
  RateStateFastVWLaw law;
  for (real v : {1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0}) {
    const real psiSs = law.steadyStatePsi(v);
    EXPECT_NEAR(law.frictionCoefficient(v, psiSs), law.steadyStateFriction(v),
                1e-10);
  }
  // Fast-velocity weakening: friction at high slip rates approaches fw.
  EXPECT_NEAR(law.steadyStateFriction(100.0), law.fw, 0.05);
  // Low-velocity branch is near f0.
  EXPECT_NEAR(law.steadyStateFriction(law.v0), law.f0, 0.02);
}

TEST(Friction, RsStateEvolutionApproachesSteadyState) {
  RateStateFastVWLaw law;
  const real v = 0.5;
  const real psiSs = law.steadyStatePsi(v);
  real psi = psiSs + 0.3;
  const real psi1 = law.evolvePsi(psi, v, 0.01);
  EXPECT_LT(std::abs(psi1 - psiSs), std::abs(psi - psiSs));
  // Long time: fully relaxed.
  EXPECT_NEAR(law.evolvePsi(psi, v, 100.0), psiSs, 1e-9);
  // Exponential-update exactness for frozen V: psi(dt) = ss + (psi-ss)e^{-V dt/L}.
  const real dt = 0.037;
  EXPECT_NEAR(law.evolvePsi(psi, v, dt),
              psiSs + (psi - psiSs) * std::exp(-v * dt / law.L), 1e-12);
}

/// Mesh with a vertical fault plane at x = 0.5.
Mesh faultedCube(int n, bool tagFault) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, n);
  spec.yLines = uniformLine(0, 1, n);
  spec.zLines = uniformLine(0, 1, n);
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kAbsorbing;
  };
  if (tagFault) {
    spec.faultFace = [](const Vec3& c, const Vec3& nrm) {
      return std::abs(c[0] - 0.5) < 1e-9 && std::abs(std::abs(nrm[0]) - 1) < 1e-9;
    };
  }
  return buildBoxMesh(spec);
}

TEST(Rupture, LockedFaultMatchesWeldedInterface) {
  // With fault strength far above any dynamic stress, the dynamic-rupture
  // flux path must reproduce the regular welded Godunov flux (the time and
  // space quadratures are exact for the polynomial data).
  const Material m = Material::fromVelocities(2.0, 2.0, 1.0);
  SolverConfig cfg;
  cfg.degree = 3;
  cfg.gravity = 0;
  cfg.frictionLaw = FrictionLawType::kLinearSlipWeakening;

  auto init = [](const Vec3& x, int) {
    std::array<real, 9> q{};
    const real g = std::exp(-0.5 * norm2(x - Vec3{0.4, 0.5, 0.5}) / 0.01);
    q[kSxx] = q[kSyy] = q[kSzz] = g;
    q[kSxy] = 0.3 * g;
    q[kVx] = 0.2 * g;
    return q;
  };

  Simulation welded(faultedCube(4, false), {m}, cfg);
  welded.setInitialCondition(init);
  welded.advanceTo(0.2);

  Simulation faulted(faultedCube(4, true), {m}, cfg);
  faulted.setInitialCondition(init);
  faulted.setupFault([](const Vec3&, const Vec3&, const Vec3&, const Vec3&) {
    FaultPointInit fp;
    fp.sigmaN0 = -1e9;  // enormous compression ...
    fp.lsw.muS = 10.0;  // ... and strength: the fault can never slip
    fp.lsw.muD = 5.0;
    return fp;
  });
  faulted.advanceTo(welded.time());
  ASSERT_NEAR(faulted.time(), welded.time(), 1e-14);

  real maxDiff = 0, scale = 0;
  for (const Vec3 p : {Vec3{0.45, 0.5, 0.5}, Vec3{0.55, 0.5, 0.5},
                       Vec3{0.62, 0.38, 0.55}, Vec3{0.3, 0.62, 0.45}}) {
    const auto a = welded.evaluateAt(p);
    const auto b = faulted.evaluateAt(p);
    for (int q = 0; q < 9; ++q) {
      maxDiff = std::max(maxDiff, std::abs(a[q] - b[q]));
      scale = std::max(scale, std::abs(a[q]));
    }
  }
  EXPECT_LT(maxDiff, 1e-9 * std::max(scale, real(1e-6)));
  EXPECT_EQ(faulted.fault()->maxSlipRate(), 0.0);
}

TEST(Rupture, OverstressedPatchRuptures) {
  // A patch loaded above static strength must start slipping and the
  // rupture must spread: slip accumulates and rupture times are later
  // away from the nucleation patch.
  const Material m = Material::fromVelocities(2700.0, 6000.0, 3464.0);
  BoxMeshSpec spec;
  const real l = 4000.0;
  spec.xLines = uniformLine(0, l, 4);
  spec.yLines = uniformLine(0, l, 4);
  spec.zLines = uniformLine(0, l, 4);
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kAbsorbing;
  };
  spec.faultFace = [&](const Vec3& c, const Vec3& nrm) {
    return std::abs(c[0] - l / 2) < 1e-6 && std::abs(std::abs(nrm[0]) - 1) < 1e-9;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  cfg.frictionLaw = FrictionLawType::kLinearSlipWeakening;
  Simulation sim(buildBoxMesh(spec), {m}, cfg);
  sim.setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  const Vec3 centre{l / 2, l / 2, l / 2};
  sim.setupFault([&](const Vec3& x, const Vec3&, const Vec3& s, const Vec3&) {
    FaultPointInit fp;
    fp.sigmaN0 = -120e6;
    fp.lsw.muS = 0.677;
    fp.lsw.muD = 0.525;
    fp.lsw.dC = 0.4;
    // Background 70 MPa (below static strength 81.2 MPa); nucleation patch
    // loaded to 85 MPa.
    const real r = std::sqrt(norm2(x - centre));
    const real tau0 = (r < 600.0) ? 85e6 : 70e6;
    // Load along the tangent direction s.
    (void)s;
    fp.tau10 = tau0;
    return fp;
  });
  sim.advanceTo(0.45);
  const FaultSolver* fault = sim.fault();
  ASSERT_NE(fault, nullptr);

  real slipNearMax = 0, slipFarMax = 0;
  real tNear = 1e30, tFar = 1e30;
  for (int i = 0; i < fault->numFaces(); ++i) {
    const FaultFace& ff = fault->faceAt(i);
    for (std::size_t p = 0; p < ff.state.size(); ++p) {
      const Vec3 x{ff.qpX[p], ff.qpY[p], ff.qpZ[p]};
      const real r = std::sqrt(norm2(x - centre));
      const auto& st = ff.state[p];
      if (r < 500.0) {
        slipNearMax = std::max(slipNearMax, st.slip);
        if (st.ruptureTime >= 0) {
          tNear = std::min(tNear, st.ruptureTime);
        }
      }
      if (r > 1200.0 && r < 1800.0) {
        slipFarMax = std::max(slipFarMax, st.slip);
        if (st.ruptureTime >= 0) {
          tFar = std::min(tFar, st.ruptureTime);
        }
      }
    }
  }
  EXPECT_GT(slipNearMax, 0.01);   // nucleation patch slipped
  EXPECT_GT(slipFarMax, 1e-4);    // rupture propagated outwards
  EXPECT_LT(tNear, tFar);         // ... causally
  // Implied rupture speed must not exceed the P-wave speed.
  const real speed = 1200.0 / std::max(tFar - tNear, real(1e-9));
  EXPECT_LT(speed, m.pWaveSpeed() * 1.5);
  EXPECT_GT(fault->totalSlipIntegral(referenceMatrices(cfg.degree), sim.mesh()),
            0.0);
}

TEST(Rupture, RateStateFaultStaysQuietWithoutOverstress) {
  const Material m = Material::fromVelocities(2700.0, 6000.0, 3464.0);
  BoxMeshSpec spec;
  const real l = 4000.0;
  spec.xLines = uniformLine(0, l, 3);
  spec.yLines = uniformLine(0, l, 3);
  spec.zLines = uniformLine(0, l, 3);
  spec.boundary = [](const Vec3&, const Vec3&) {
    return BoundaryType::kAbsorbing;
  };
  spec.faultFace = [&](const Vec3& c, const Vec3& nrm) {
    return std::abs(c[0] - l * (1.0 / 3.0)) < 1e-6 &&
           std::abs(std::abs(nrm[0]) - 1) < 1e-9;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.gravity = 0;
  cfg.frictionLaw = FrictionLawType::kRateStateFastVW;
  Simulation sim(buildBoxMesh(spec), {m}, cfg);
  sim.setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  sim.setupFault([](const Vec3&, const Vec3&, const Vec3&, const Vec3&) {
    FaultPointInit fp;
    fp.sigmaN0 = -120e6;
    fp.tau10 = 40e6;  // well below steady-state strength ~0.6 * 120 MPa
    fp.initialSlipRate = 1e-16;
    return fp;
  });
  sim.advanceTo(0.2);
  // The fault may creep at the (negligible) initial rate but must not
  // nucleate spontaneously.
  EXPECT_LT(sim.fault()->maxSlipRate(), 1e-6);
}

}  // namespace
}  // namespace tsg
