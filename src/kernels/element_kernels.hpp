#pragma once

// Element-local ADER-DG kernels on raw storage.
//
// Conventions:
//  * Modal DOFs are row-major [nb x 9] (basis index x quantity).
//  * Star matrices are stored transposed ([9 x 9] row-major, ready to be
//    the right operand of DOFs * (A*)^T).
//  * The derivative stack holds the Taylor coefficients
//    stack[k] = d^k Q / dt^k, k = 0..degree, each [nb x 9].
//
// All kernels accumulate FLOP counts (paper Secs. 5.1/6.2 report GFLOPS).

#include "common/types.hpp"
#include "kernels/reference_matrices.hpp"

namespace tsg {

/// C(MxN) += A(MxK) B(KxN), row-major contiguous, with FLOP accounting.
void gemmAccRaw(int m, int n, int k, const real* a, const real* b, real* c);

/// Number of reals in one modal coefficient block.
inline int dofCount(const ReferenceMatrices& rm) {
  return rm.nb * kNumQuantities;
}

/// ADER predictor (discrete Cauchy-Kowalewski): fills stack[0..degree]
/// from the current DOFs.  `starT` points at 3 consecutive transposed
/// 9x9 star matrices.  `scratch` must hold nb*9 reals.
void aderPredictor(const ReferenceMatrices& rm, const real* starT,
                   const real* dofs, real* stack, real* scratch);

/// out = int_a^b Taylor(stack) dt  (a, b relative to the expansion point).
void taylorIntegrate(const ReferenceMatrices& rm, const real* stack, real a,
                     real b, real* out);

/// dofs += sum_c kXi[c] * tInt * starT[c]  (volume corrector term).
/// `scratch` must hold nb*9 reals.
void volumeKernel(const ReferenceMatrices& rm, const real* starT,
                  const real* tInt, real* dofs, real* scratch);

/// dofs += faceMatrix * (tIntSrc * negFluxT), i.e. dofs -= faceMatrix *
/// (tIntSrc * fluxT), where negFluxT is a pre-scaled, transposed and
/// NEGATED 9x9 flux matrix (the face's area/volume ratio is folded in;
/// the sign fold is exact, see SimulationAssets::negFluxMinusTB).
/// `scratch` must hold nb*9 reals.
void surfaceKernel(const ReferenceMatrices& rm, const Matrix& faceMatrix,
                   const real* negFluxT, const real* tIntSrc, real* dofs,
                   real* scratch);

/// FLOPs of one predictor call (for the performance model).
std::uint64_t aderPredictorFlops(const ReferenceMatrices& rm);
/// FLOPs of one volume + four regular surface corrector calls.
std::uint64_t correctorFlops(const ReferenceMatrices& rm);

}  // namespace tsg
