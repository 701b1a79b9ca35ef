// Property-based sweeps of the Godunov interface solver over random
// normals and material contrasts (TEST_P): the invariants of Sec. 4.2
// must hold for *every* face orientation, not just axis-aligned ones.
// Also pins the per-material-pair split of the flux matrices (computed
// once per pair, rotated per face) byte for byte against the per-face
// solver.

#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"

namespace tsg {
namespace {

Vec3 randomUnit(std::mt19937& rng) {
  std::normal_distribution<real> g(0, 1);
  Vec3 n{g(rng), g(rng), g(rng)};
  const real len = std::sqrt(norm2(n));
  return {n[0] / len, n[1] / len, n[2] / len};
}

Matrix ahatOf(const Material& m, const Vec3& n) {
  Matrix a(kNumQuantities, kNumQuantities);
  for (int d = 0; d < 3; ++d) {
    const Matrix ad = jacobianMatrix(m, d);
    for (int i = 0; i < kNumQuantities; ++i) {
      for (int j = 0; j < kNumQuantities; ++j) {
        a(i, j) += n[d] * ad(i, j);
      }
    }
  }
  return a;
}

class RiemannSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RiemannSweep, FluxConservationAcrossInterface) {
  // The flux leaving the minus side must equal the flux entering the plus
  // side for the *continuous* quantities (traction & normal velocity):
  // compute the middle states from both sides' perspectives and compare
  // the physical interface values.
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<real> uni(0.5, 3.0);
  const Material mm = Material::fromVelocities(uni(rng), 2 * uni(rng), uni(rng));
  const Material mp = Material::fromVelocities(uni(rng), 2 * uni(rng), uni(rng));
  const Vec3 n = randomUnit(rng);

  Vec3 s, t;
  faceBasis(n, s, t);
  const Matrix rotInv = rotationMatrixInverse(n, s, t);

  Matrix gm, gp;
  godunovStateOperators(mm, mp, gm, gp);
  Matrix gmSwap, gpSwap;
  godunovStateOperators(mp, mm, gmSwap, gpSwap);

  std::uniform_real_distribution<real> val(-1, 1);
  Matrix qm(kNumQuantities, 1), qp(kNumQuantities, 1);
  for (int i = 0; i < kNumQuantities; ++i) {
    qm(i, 0) = val(rng);
    qp(i, 0) = val(rng);
  }
  const Matrix wm = rotInv * qm;
  const Matrix wp = rotInv * qp;
  const Matrix qbMinus = gm * wm + gp * wp;
  // Swapped problem (viewed from the plus side): the normal flips, which
  // in the face frame negates the normal-velocity and the two shear
  // traction components.
  Matrix wmF = wp, wpF = wm;
  for (int c : {kVx, kSxy, kSxz}) {
    wmF(c, 0) = -wmF(c, 0);
    wpF(c, 0) = -wpF(c, 0);
  }
  const Matrix qbPlus = gmSwap * wmF + gpSwap * wpF;
  // Normal traction identical; normal velocity opposite sign (frame flip).
  EXPECT_NEAR(qbMinus(kSxx, 0), qbPlus(kSxx, 0),
              1e-9 * (1 + std::abs(qbMinus(kSxx, 0))));
  EXPECT_NEAR(qbMinus(kVx, 0), -qbPlus(kVx, 0),
              1e-9 * (1 + std::abs(qbMinus(kVx, 0))));
  // Welded contact: tangential traction and velocity also continuous.
  EXPECT_NEAR(qbMinus(kSxy, 0), -qbPlus(kSxy, 0),
              1e-9 * (1 + std::abs(qbMinus(kSxy, 0))));
  EXPECT_NEAR(qbMinus(kVy, 0), qbPlus(kVy, 0),
              1e-9 * (1 + std::abs(qbMinus(kVy, 0))));
}

TEST_P(RiemannSweep, UpwindFluxDissipatesEnergy) {
  // For identical materials the Godunov flux is the exact upwind flux:
  // F^- - Ahat/2 must be symmetric-negative-ish in the energy norm; we
  // verify the weaker, sufficient property |Ahat| = F^- - F^+ has
  // non-negative symmetrised energy dissipation on random states.
  std::mt19937 rng(GetParam() + 1000);
  std::uniform_real_distribution<real> uni(0.5, 3.0);
  const Material m = Material::fromVelocities(uni(rng), 2 * uni(rng), uni(rng));
  const Vec3 n = randomUnit(rng);
  const auto fm = interfaceFluxMatrices(m, m, n);
  // |Ahat| acts like  F^- applied to (q^-) minus F^+ applied to (q^-)
  // when q^+ = 0 vs q^- = 0; spectral check: eigen-consistency through
  // the wave speeds: |Ahat| q for an eigenvector r of Ahat with speed c
  // must be |c| r (up to the defective zero modes).
  const Matrix ahat = ahatOf(m, n);
  const Matrix absA = fm.fMinus - fm.fPlus;
  // P eigenvector (left-going): Ahat r = -cp r => |Ahat| r = cp r.
  Vec3 s, t;
  faceBasis(n, s, t);
  const Matrix rot = rotationMatrix(n, s, t);
  Matrix rFace(kNumQuantities, 1);
  rFace(kSxx, 0) = m.lambda + 2 * m.mu;
  rFace(kSyy, 0) = m.lambda;
  rFace(kSzz, 0) = m.lambda;
  rFace(kVx, 0) = m.pWaveSpeed();
  const Matrix r = rot * rFace;
  const Matrix ar = ahat * r;
  const Matrix absAr = absA * r;
  for (int i = 0; i < kNumQuantities; ++i) {
    EXPECT_NEAR(ar(i, 0), -m.pWaveSpeed() * r(i, 0),
                1e-6 * (1 + std::abs(r(i, 0)) * m.pWaveSpeed()));
    EXPECT_NEAR(absAr(i, 0), m.pWaveSpeed() * r(i, 0),
                1e-6 * (1 + std::abs(r(i, 0)) * m.pWaveSpeed()));
  }
}

TEST_P(RiemannSweep, FluidSolidMiddleStateHasNoShearTraction) {
  std::mt19937 rng(GetParam() + 2000);
  std::uniform_real_distribution<real> uni(0.5, 3.0);
  const Material solid = Material::fromVelocities(uni(rng), 2 * uni(rng), uni(rng));
  const Material fluid = Material::acoustic(uni(rng), uni(rng));
  Matrix gm, gp;
  godunovStateOperators(solid, fluid, gm, gp);
  std::uniform_real_distribution<real> val(-1, 1);
  Matrix wm(kNumQuantities, 1), wp(kNumQuantities, 1);
  for (int i = 0; i < kNumQuantities; ++i) {
    wm(i, 0) = val(rng);
  }
  wp(kSxx, 0) = val(rng);
  wp(kSyy, 0) = wp(kSxx, 0);
  wp(kSzz, 0) = wp(kSxx, 0);
  for (int i = kVx; i <= kVz; ++i) {
    wp(i, 0) = val(rng);
  }
  const Matrix qb = gm * wm + gp * wp;
  EXPECT_NEAR(qb(kSxy, 0), 0.0, 1e-10);
  EXPECT_NEAR(qb(kSxz, 0), 0.0, 1e-10);
}

TEST_P(RiemannSweep, BoundaryFluxMatricesAreFinite) {
  std::mt19937 rng(GetParam() + 3000);
  std::uniform_real_distribution<real> uni(0.5, 3.0);
  const Vec3 n = randomUnit(rng);
  for (const Material& m :
       {Material::fromVelocities(uni(rng), 2 * uni(rng), uni(rng)),
        Material::acoustic(uni(rng), uni(rng))}) {
    for (BoundaryType bc : {BoundaryType::kFreeSurface,
                            BoundaryType::kAbsorbing,
                            BoundaryType::kRigidWall}) {
      const Matrix f = boundaryFluxMatrix(m, bc, n);
      for (int i = 0; i < kNumQuantities; ++i) {
        for (int j = 0; j < kNumQuantities; ++j) {
          EXPECT_TRUE(std::isfinite(f(i, j)));
        }
      }
    }
  }
}

bool sameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

/// Axis-aligned normals of both signs plus random unit normals.
std::vector<Vec3> normalSpread() {
  std::vector<Vec3> normals = {{1, 0, 0},  {0, 1, 0},  {0, 0, 1},
                               {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}};
  std::mt19937 rng(2018);
  for (int i = 0; i < 10; ++i) {
    normals.push_back(randomUnit(rng));
  }
  return normals;
}

TEST(RiemannPerPair, FaceFluxOfPairOperatorsMatchesInterfaceFluxBytewise) {
  const Material crust = Material::fromVelocities(2700, 6000, 3464);
  const Material sediment = Material::fromVelocities(2200, 3500, 1800);
  const Material water = Material::acoustic(1000, 1500);
  const Material brine = Material::acoustic(1030, 1520);
  const struct {
    const char* name;
    Material minus, plus;
  } pairs[] = {{"elastic-elastic", crust, sediment},
               {"elastic-acoustic", crust, water},
               {"acoustic-elastic", water, crust},
               {"acoustic-acoustic", water, brine}};
  for (const auto& pair : pairs) {
    const GodunovOperators ops = godunovOperators(pair.minus, pair.plus);
    for (const Vec3& n : normalSpread()) {
      const FluxMatrices fm = faceFluxMatrices(ops, n);
      const FluxMatrices ref = interfaceFluxMatrices(pair.minus, pair.plus, n);
      EXPECT_TRUE(sameBytes(fm.fMinus, ref.fMinus)) << pair.name;
      EXPECT_TRUE(sameBytes(fm.fPlus, ref.fPlus)) << pair.name;

      // The per-face solver's own composition, restated from its parts:
      // same operators, same product order rot * (aFace * (g * rotInv)).
      Vec3 s, t;
      faceBasis(n, s, t);
      const Matrix rot = rotationMatrix(n, s, t);
      const Matrix rotInv = rotationMatrixInverse(n, s, t);
      Matrix gm, gp;
      godunovStateOperators(pair.minus, pair.plus, gm, gp);
      const Matrix aFace = jacobianMatrix(pair.minus, 0);
      EXPECT_TRUE(sameBytes(fm.fMinus, rot * (aFace * (gm * rotInv))))
          << pair.name;
      EXPECT_TRUE(sameBytes(fm.fPlus, rot * (aFace * (gp * rotInv))))
          << pair.name;
    }
  }
}

TEST(RiemannPerPair, BoundaryOperatorsFoldTheGhostStateBytewise) {
  const Material crust = Material::fromVelocities(2700, 6000, 3464);
  const Material water = Material::acoustic(1000, 1500);
  for (const Material& m : {crust, water}) {
    Matrix gm, gp;
    godunovStateOperators(m, m, gm, gp);
    const Matrix aFace = jacobianMatrix(m, 0);
    const struct {
      BoundaryType bc;
      Matrix eff;
    } cases[] = {{BoundaryType::kFreeSurface, gm + gp * freeSurfaceMirror()},
                 {BoundaryType::kRigidWall, gm + gp * rigidWallMirror()},
                 {BoundaryType::kAbsorbing, gm}};
    for (const auto& c : cases) {
      const GodunovOperators ops = boundaryOperators(m, c.bc);
      for (const Vec3& n : normalSpread()) {
        Vec3 s, t;
        faceBasis(n, s, t);
        const Matrix expected =
            rotationMatrix(n, s, t) *
            (aFace * (c.eff * rotationMatrixInverse(n, s, t)));
        EXPECT_TRUE(sameBytes(faceFluxMatrices(ops, n).fMinus, expected));
        EXPECT_TRUE(sameBytes(boundaryFluxMatrix(m, c.bc, n), expected));
      }
    }
  }
  EXPECT_THROW(boundaryOperators(crust, BoundaryType::kDynamicRupture),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RiemannSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace tsg
