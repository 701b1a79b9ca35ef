#pragma once

// Precomputed reference-element matrices for the quadrature-free ADER-DG
// scheme (paper Sec. 4.1).
//
// With the orthonormal Dubiner basis the reference mass matrix is the
// identity, so the semi-discrete update reads
//   dQ/dt = sum_c kXi[c] Q (A*_c)^T  -  sum_f s_f * (surface terms),
// and the discrete Cauchy-Kowalewski recursion of the ADER predictor is
//   dQ^{(k+1)} = - sum_c dXi[c] dQ^{(k)} (A*_c)^T,  dXi[c] = kXi[c]^T.
//
// Face terms are evaluated at tensorised Gauss points on the reference
// triangle.  For every (own face, neighbour face, permutation) combination
// the neighbour's basis trace at the physically matching points is
// precomputed, which sidesteps orientation bookkeeping entirely.

#include <array>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace tsg {

struct ReferenceMatrices {
  int degree = 0;
  int nb = 0;   // basis size
  int nq = 0;   // face quadrature points
  int nt = 0;   // time quadrature points (for rupture faces)

  /// kXi[c](k,l) = int_ref dphi_k/dxi_c phi_l  (volume/stiffness term).
  std::array<Matrix, 3> kXi;
  /// dXi[c] = kXi[c]^T (modal derivative projection, used by the predictor).
  std::array<Matrix, 3> dXi;

  /// Reference-triangle quadrature (s, t, w), weights sum to 1/2.
  std::vector<real> faceQuadS, faceQuadT, faceQuadW;

  /// faceEval[f] (nq x nb): own basis trace on local face f.
  std::array<Matrix, 4> faceEval;
  /// faceEvalTW[f] (nb x nq): faceEval[f]^T scaled by quadrature weights --
  /// the "test side" of all face integrals.
  std::array<Matrix, 4> faceEvalTW;
  /// fluxLocal[f] (nb x nb) = faceEvalTW[f] * faceEval[f].
  std::array<Matrix, 4> fluxLocal;

  /// faceEvalNeighbor[f][g][perm] (nq x nb): neighbour basis trace at the
  /// points matching faceEval[f]'s quadrature points.
  std::array<std::array<std::array<Matrix, 6>, 4>, 4> faceEvalNeighbor;
  /// fluxNeighbor[f][g][perm] (nb x nb) = faceEvalTW[f] * faceEvalNeighbor.
  std::array<std::array<std::array<Matrix, 6>, 4>, 4> fluxNeighbor;
  /// faceEvalNeighborTW[f][g][perm] (nb x nq): neighbour trace transposed
  /// and weighted -- the test side for writing rupture fluxes into the
  /// neighbour element.
  std::array<std::array<std::array<Matrix, 6>, 4>, 4> faceEvalNeighborTW;

  /// Volume quadrature (for projections of initial conditions etc.);
  /// exact to degree 2*degree+1.
  std::vector<Vec3> volQuadXi;
  std::vector<real> volQuadW;
  /// volEval (nvq x nb): basis at the volume quadrature points.
  Matrix volEval;

  /// Gauss-Legendre points/weights on [0, 1] for time quadrature.
  std::vector<real> timeQuadTau, timeQuadW;
};

/// Face quadrature points of a degree: a collapsed (degree+2) x (degree+2)
/// Gauss rule on the reference triangle.
constexpr int faceQuadSize(int degree) { return (degree + 2) * (degree + 2); }

/// Cached accessor; matrices for a degree are built once.  Throws
/// std::invalid_argument outside 1..kMaxDegree.
const ReferenceMatrices& referenceMatrices(int degree);

}  // namespace tsg
