#pragma once

// Batched ADER-DG kernels over interleaved cluster-contiguous tiles
// (see batch_layout.hpp for the tile layout).
//
// Every kernel here performs, per element, EXACTLY the floating-point
// operations of its per-element counterpart in element_kernels.hpp, in
// the same order: the batched pipeline fuses the n = 9 GEMMs of a whole
// batch into one n = 9*width GEMM, and a row-major GEMM accumulates each
// output value over the k index in increasing order regardless of how
// the n loop is blocked.  Results are therefore bitwise-identical to the
// reference path -- pinned by tests/test_batched_kernels.cpp and, at
// every degree, tests/test_lts_deep.cpp.
//
// Each kernel is instantiated per degree (1..kMaxDegree) with compile-time
// basis and 9x9 shapes; a product whose output the reference zeroes just
// before accumulating into it stores its result instead (bitwise the same,
// see batched_kernels.cpp).
//
// Batch-ordered side arrays ("B" suffix): starTB holds, lane-major, the
// 3 transposed star matrices of each lane (lane*3*81 + c*81).

#include "common/types.hpp"
#include "kernels/reference_matrices.hpp"

namespace tsg {

/// C(nb x n) += A(nb x nb) B(nb x n): a basis operator (dXi, kXi,
/// fluxLocal; contiguous, nb x nb) applied to n columns of a tile, with B and
/// C of leading dimension ld, and FLOP accounting.  Bitwise-equal to
/// detail::gemmAccImpl: the m/n tails are blocked instead of scalar, which
/// leaves every per-output accumulation sequence intact.  nb must be
/// basisSize(d) for a degree d in 1..kMaxDegree (else invalid_argument).
void gemmBasisTile(int nb, int n, const real* a, const real* b, real* c,
                   int ld);

/// Zero rows [0, nb) x cols [0, cols) of a tile with leading dimension ld.
void zeroTile(real* tile, int nb, int cols, int ld);

/// Batched ADER predictor: stackTiles holds degree+1 consecutive tiles of
/// nb*ld reals each; level 0 must contain the gathered DOFs.  Fills
/// levels 1..degree.  `scratchTile` is one tile of nb*ld reals.
/// `negStarTB` holds the NEGATED transposed star matrices (the reference
/// path's negate-then-multiply, with the sign folded into the operand).
void batchedAderPredictor(const ReferenceMatrices& rm, const real* negStarTB,
                          real* stackTiles, real* scratchTile, int width,
                          int ld);

/// outTile = int_a^b Taylor(stackTiles) dt, batched over the tile.
void batchedTaylorIntegrate(const ReferenceMatrices& rm,
                            const real* stackTiles, real a, real b,
                            real* outTile, int width, int ld);

/// dofTile += sum_c kXi[c] * tIntTile * starT[c], batched (one nb x nb
/// GEMM per direction for the whole batch).
void batchedVolumeKernel(const ReferenceMatrices& rm, const real* starTB,
                         const real* tIntTile, real* dofTile,
                         real* scratchTile, int width, int ld);

/// Per-lane flux-solver products of the local surface stage:
/// faceScratch[lane] += tIntTile[lane] * negFluxT[lane] for every lane
/// with a non-null matrix pointer (null lanes -- gravity, rupture,
/// unfolded boundaries -- are skipped).  One FLOP-accounting call.
void batchedLocalFluxStage(int nb, int width, int ld, const real* tIntTile,
                           const real* const* negFluxT, real* faceScratch);

/// Per-lane neighbour-flux contributions: for every lane with a non-null
/// entry, scratch = src[lane] * negFluxPlusT[lane] (an nb x 9 store with
/// the bits of the reference's memset + accumulate sequence), then
/// dofTile[lane] += fluxNeighbor[lane] * scratch.
struct NeighborFluxLane {
  const real* src = nullptr;           // nb x 9 time-integral operand
  const real* negFluxPlusT = nullptr;  // 9 x 9, pre-negated
  const real* fluxNeighbor = nullptr;  // nb x nb
};
void batchedNeighborFluxStage(int nb, int width, int ld,
                              const NeighborFluxLane* lanes, real* scratch,
                              real* dofTile);

/// dofs -= scale * testTW * fluxQP, where testTW is [nb x nq] (a weighted
/// test trace), fluxQP is [nq x 9] (per-quadrature-point time-integrated
/// fluxes), scale is the face's area/volume ratio and dofs has leading
/// dimension ldc (9 for an element block, 9 * batch for a tile lane).
/// Used by gravity and rupture faces in both backends.
void surfaceKernelPointwiseStrided(const ReferenceMatrices& rm,
                                   const Matrix& testTW, real scale,
                                   const real* fluxQP, real* dofs, int ldc);

}  // namespace tsg
