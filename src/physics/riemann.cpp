#include "physics/riemann.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "physics/jacobians.hpp"

namespace tsg {

namespace {

/// Left-going (into the minus side) eigenvectors of the face-normal
/// Jacobian for the given material: P wave and, if elastic, two S waves.
std::vector<std::vector<real>> leftGoingEigenvectors(const Material& m) {
  std::vector<std::vector<real>> r;
  const real lp2m = m.lambda + 2.0 * m.mu;
  r.push_back({lp2m, m.lambda, m.lambda, 0, 0, 0, m.pWaveSpeed(), 0, 0});
  if (!m.isAcoustic()) {
    r.push_back({0, 0, 0, m.mu, 0, 0, 0, m.sWaveSpeed(), 0});
    r.push_back({0, 0, 0, 0, 0, m.mu, 0, 0, m.sWaveSpeed()});
  }
  return r;
}

/// Right-going eigenvectors (velocity signs flipped).
std::vector<std::vector<real>> rightGoingEigenvectors(const Material& m) {
  auto r = leftGoingEigenvectors(m);
  for (auto& v : r) {
    for (int c = 6; c < 9; ++c) {
      v[c] = -v[c];
    }
  }
  return r;
}

}  // namespace

void godunovStateOperators(const Material& matMinus, const Material& matPlus,
                           Matrix& gMinus, Matrix& gPlus) {
  const auto rl = leftGoingEigenvectors(matMinus);
  const auto rr = rightGoingEigenvectors(matPlus);
  const int nl = static_cast<int>(rl.size());
  const int nr = static_cast<int>(rr.size());
  const int k = nl + nr;

  // Interface conditions as rows of:  M u = Bm q^- + Bp q^+,
  // with u = [alpha (minus-side wave strengths); beta (plus side)].
  struct Condition {
    int component;
    enum class Kind { kContinuity, kZeroMinus, kZeroPlus } kind;
  };
  std::vector<Condition> conds;
  using Kind = Condition::Kind;
  const bool minusElastic = !matMinus.isAcoustic();
  const bool plusElastic = !matPlus.isAcoustic();
  // Normal traction and normal velocity are always continuous.
  conds.push_back({kSxx, Kind::kContinuity});
  conds.push_back({kVx, Kind::kContinuity});
  if (minusElastic && plusElastic) {
    // Welded contact: tangential tractions and velocities continuous.
    conds.push_back({kSxy, Kind::kContinuity});
    conds.push_back({kSxz, Kind::kContinuity});
    conds.push_back({kVy, Kind::kContinuity});
    conds.push_back({kVz, Kind::kContinuity});
  } else {
    // Fluid-solid: tangential tractions vanish on the solid-side middle
    // state (weak enforcement of the inviscid slip condition, Eq. 16/17).
    if (minusElastic) {
      conds.push_back({kSxy, Kind::kZeroMinus});
      conds.push_back({kSxz, Kind::kZeroMinus});
    }
    if (plusElastic) {
      conds.push_back({kSxy, Kind::kZeroPlus});
      conds.push_back({kSxz, Kind::kZeroPlus});
    }
  }
  assert(static_cast<int>(conds.size()) == k);

  Matrix m(k, k);
  Matrix bm(k, kNumQuantities);
  Matrix bp(k, kNumQuantities);
  for (int row = 0; row < k; ++row) {
    const int c = conds[row].component;
    switch (conds[row].kind) {
      case Kind::kContinuity:
        // (q^- + RL a)[c] = (q^+ - RR b)[c]
        for (int i = 0; i < nl; ++i) {
          m(row, i) = rl[i][c];
        }
        for (int j = 0; j < nr; ++j) {
          m(row, nl + j) = rr[j][c];
        }
        bm(row, c) = -1;
        bp(row, c) = 1;
        break;
      case Kind::kZeroMinus:
        // (q^- + RL a)[c] = 0
        for (int i = 0; i < nl; ++i) {
          m(row, i) = rl[i][c];
        }
        bm(row, c) = -1;
        break;
      case Kind::kZeroPlus:
        // (q^+ - RR b)[c] = 0
        for (int j = 0; j < nr; ++j) {
          m(row, nl + j) = rr[j][c];
        }
        bp(row, c) = 1;
        break;
    }
  }

  const Matrix xm = solveDense(m, bm);  // u = xm q^- + xp q^+
  const Matrix xp = solveDense(m, bp);

  gMinus = Matrix::identity(kNumQuantities);
  gPlus = Matrix(kNumQuantities, kNumQuantities);
  for (int c = 0; c < kNumQuantities; ++c) {
    for (int i = 0; i < nl; ++i) {
      for (int col = 0; col < kNumQuantities; ++col) {
        gMinus(c, col) += rl[i][c] * xm(i, col);
        gPlus(c, col) += rl[i][c] * xp(i, col);
      }
    }
  }
  if (matMinus.isAcoustic()) {
    // No shear stress exists in a fluid; zero the (flux-irrelevant but
    // Jordan-block-prone) shear rows of the middle state.
    for (int c : {kSxy, kSyz, kSxz}) {
      for (int col = 0; col < kNumQuantities; ++col) {
        gMinus(c, col) = 0;
        gPlus(c, col) = 0;
      }
    }
  }
}

GodunovOperators godunovOperators(const Material& matMinus,
                                  const Material& matPlus) {
  GodunovOperators ops;
  godunovStateOperators(matMinus, matPlus, ops.gMinus, ops.gPlus);
  ops.aFace = jacobianMatrix(matMinus, 0);
  return ops;
}

FluxMatrices faceFluxMatrices(const GodunovOperators& ops, const Vec3& n) {
  Vec3 s, t;
  faceBasis(n, s, t);
  const Matrix rot = rotationMatrix(n, s, t);
  const Matrix rotInv = rotationMatrixInverse(n, s, t);

  FluxMatrices out;
  out.fMinus = rot * (ops.aFace * (ops.gMinus * rotInv));
  out.fPlus = rot * (ops.aFace * (ops.gPlus * rotInv));
  return out;
}

FluxMatrices interfaceFluxMatrices(const Material& matMinus,
                                   const Material& matPlus, const Vec3& n) {
  return faceFluxMatrices(godunovOperators(matMinus, matPlus), n);
}

Matrix freeSurfaceMirror() {
  Matrix mirror = Matrix::identity(kNumQuantities);
  mirror(kSxx, kSxx) = -1;
  mirror(kSxy, kSxy) = -1;
  mirror(kSxz, kSxz) = -1;
  return mirror;
}

Matrix rigidWallMirror() {
  Matrix mirror = Matrix::identity(kNumQuantities);
  mirror(kVx, kVx) = -1;
  mirror(kSxy, kSxy) = -1;
  mirror(kSxz, kSxz) = -1;
  return mirror;
}

GodunovOperators boundaryOperators(const Material& mat, BoundaryType bc) {
  GodunovOperators ops = godunovOperators(mat, mat);
  switch (bc) {
    case BoundaryType::kFreeSurface:
      // Ghost state mirrors the traction; the Riemann middle state then has
      // exactly zero traction on the boundary.
      ops.gMinus = ops.gMinus + ops.gPlus * freeSurfaceMirror();
      break;
    case BoundaryType::kRigidWall:
      ops.gMinus = ops.gMinus + ops.gPlus * rigidWallMirror();
      break;
    case BoundaryType::kAbsorbing:
      // Ghost state q^+ = 0: only the outgoing characteristics contribute.
      break;
    default:
      throw std::invalid_argument(
          "boundaryOperators: unsupported boundary type");
  }
  ops.gPlus = Matrix(kNumQuantities, kNumQuantities);
  return ops;
}

Matrix boundaryFluxMatrix(const Material& mat, BoundaryType bc, const Vec3& n) {
  return faceFluxMatrices(boundaryOperators(mat, bc), n).fMinus;
}

}  // namespace tsg
