#include "kernels/batched_kernels.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/flops.hpp"

namespace tsg {

namespace {

// Every product below has compile-time shapes: M = nb rows, a reduction
// length K of nb, 9 or nq, and N = 9 columns for the per-lane products.
// Only the tile GEMMs (9 * width columns) take their column count at
// runtime, marked by N = kRuntimeN.
constexpr int kRuntimeN = 0;

// One panel of C: BM rows x W columns, C (=|+=) A(BM x K) B(K x W).  Every
// output keeps the gemmAccImpl floating-point contract (zeroed accumulator,
// ascending-k single-rounded mul/add, one final add into C), so values are
// bitwise-independent of the panel shape.
//
// Each accumulator row is one W-lane GCC vector and the row loop is
// unrolled, so the BM accumulators are separate values held in registers;
// a scalar [BM][W] array indexed by loop counters stays on the stack (one
// load and one store per vector multiply-add).  There is no fixed-width
// lane loop for -O3's early complete unrolling to scalarize.  `unroll 9`
// fully unrolls the 9-deep per-lane products; fully unrolling the
// basis-size reductions (K up to 56) measured slower.
//
// Store writes C = acc instead of C += acc, for a C that holds +0: acc
// starts at +0, and a round-to-nearest sum is -0 only if both addends are,
// so acc is never -0 and +0 + acc == acc bit for bit.
template <int BM, int W, int K, bool Store>
inline void gemmPanel(const real* a, int lda, const real* b, int ldb, real* c,
                      int ldc) {
  typedef real Vec __attribute__((vector_size(W * sizeof(real))));
  Vec acc[BM] = {};
#pragma GCC unroll 9
  for (int p = 0; p < K; ++p) {
    Vec bp;
    std::memcpy(&bp, b + static_cast<std::size_t>(p) * ldb, sizeof(Vec));
#pragma GCC unroll 4
    for (int bi = 0; bi < BM; ++bi) {
      acc[bi] += a[static_cast<std::size_t>(bi) * lda + p] * bp;
    }
  }
#pragma GCC unroll 4
  for (int bi = 0; bi < BM; ++bi) {
    real* cRow = c + static_cast<std::size_t>(bi) * ldc;
    if constexpr (!Store) {
      Vec old;
      std::memcpy(&old, cRow, sizeof(Vec));
      acc[bi] = old + acc[bi];
    }
    std::memcpy(cRow, &acc[bi], sizeof(Vec));
  }
}

// Row block of the GEMM: BM rows of C, all n columns, in panels 8/4/1 wide.
template <int BM, int K, int N, bool Store>
inline void gemmRows(int nRuntime, const real* a, int lda, const real* b,
                     int ldb, real* c, int ldc) {
  const int n = N == kRuntimeN ? nRuntime : N;
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    gemmPanel<BM, 8, K, Store>(a, lda, b + j, ldb, c + j, ldc);
  }
  for (; j + 4 <= n; j += 4) {
    gemmPanel<BM, 4, K, Store>(a, lda, b + j, ldb, c + j, ldc);
  }
  for (; j < n; ++j) {
    gemmPanel<BM, 1, K, Store>(a, lda, b + j, ldb, c + j, ldc);
  }
}

// C(M x N) += A(M x K) B(K x N) (or C = A B with Store), blocked 4/2/1
// over the rows, without FLOP accounting -- the per-lane loops below issue
// thousands of tiny GEMMs per tile, so flops are counted once per tile.
template <int M, int K, int N, bool Store = false>
inline void gemm(int nRuntime, const real* a, int lda, const real* b, int ldb,
                 real* c, int ldc) {
  int i = 0;
  for (; i + 4 <= M; i += 4) {
    gemmRows<4, K, N, Store>(nRuntime, a + static_cast<std::size_t>(i) * lda,
                             lda, b, ldb,
                             c + static_cast<std::size_t>(i) * ldc, ldc);
  }
  if constexpr (M % 4 >= 2) {
    gemmRows<2, K, N, Store>(nRuntime, a + static_cast<std::size_t>(i) * lda,
                             lda, b, ldb,
                             c + static_cast<std::size_t>(i) * ldc, ldc);
    i += 2;
  }
  if constexpr (M % 2 == 1) {
    gemmRows<1, K, N, Store>(nRuntime, a + static_cast<std::size_t>(i) * lda,
                             lda, b, ldb,
                             c + static_cast<std::size_t>(i) * ldc, ldc);
  }
}

// Tile GEMM of a basis operator: C(nb x n) (=|+=) A(nb x nb) B(nb x n),
// with B and C tiles of leading dimension ld and FLOP accounting.
template <int NB, bool Store = false>
inline void tileGemm(int n, const real* a, const real* b, real* c, int ld) {
  gemm<NB, NB, kRuntimeN, Store>(n, a, NB, b, ld, c, ld);
  countFlops(2ull * NB * n * NB);
}

// Per-lane star products on a tile: c[lane] (=|+=) a[lane] * starB[lane][dir]
// for every lane, with one FLOP-accounting call for the whole tile.
template <int NB, bool Store>
inline void starProductsTile(int width, int ld, const real* aTile,
                             const real* starB, int dir, real* cTile) {
  for (int lane = 0; lane < width; ++lane) {
    gemm<NB, kNumQuantities, kNumQuantities, Store>(
        0, aTile + static_cast<std::size_t>(lane) * kNumQuantities, ld,
        starB + (static_cast<std::size_t>(lane) * 3 + dir) * kNumQuantities *
                    kNumQuantities,
        kNumQuantities, cTile + static_cast<std::size_t>(lane) * kNumQuantities,
        ld);
  }
  countFlops(2ull * NB * 81 * width);
}

// The one runtime-to-compile-time switch: calls
// f(std::integral_constant<int, D>{}) for the degree D in 1..kMaxDegree
// whose basis size is nb.
template <class F>
void withDegree(int nb, F&& f) {
  const bool found = [&]<int... I>(std::integer_sequence<int, I...>) {
    return ((nb == basisSize(I + 1) &&
             (f(std::integral_constant<int, I + 1>{}), true)) ||
            ...);
  }(std::make_integer_sequence<int, kMaxDegree>{});
  if (!found) {
    throw std::invalid_argument("batched kernels: no kernel for basis size " +
                                std::to_string(nb));
  }
}

template <int D>
void aderPredictor(const ReferenceMatrices& rm, const real* negStarTB,
                   real* stackTiles, real* scratchTile, int width, int ld) {
  constexpr int nb = basisSize(D);
  const int cols = kNumQuantities * width;
  const std::size_t tileSize = static_cast<std::size_t>(nb) * ld;
  for (int k = 0; k < D; ++k) {
    const real* cur = stackTiles + static_cast<std::size_t>(k) * tileSize;
    real* next = stackTiles + static_cast<std::size_t>(k + 1) * tileSize;
    for (int c = 0; c < 3; ++c) {
      // One blocked GEMM for the whole batch (reference: per-element
      // dXi[c] * cur), then the per-lane 9x9 star products on the hot
      // tile.  The reference negates the dXi product before multiplying
      // by starT; here the sign lives in the pre-negated star matrices
      // instead -- each product term flips sign exactly (IEEE), so every
      // accumulated output is bitwise-identical.  Both products store
      // into what the reference zeroes first (scratch; next at c = 0).
      tileGemm<nb, true>(cols, rm.dXi[c].data(), cur, scratchTile, ld);
      if (c == 0) {
        starProductsTile<nb, true>(width, ld, scratchTile, negStarTB, c, next);
      } else {
        starProductsTile<nb, false>(width, ld, scratchTile, negStarTB, c,
                                    next);
      }
    }
  }
}

template <int D>
void volumeKernel(const ReferenceMatrices& rm, const real* starTB,
                  const real* tIntTile, real* dofTile, real* scratchTile,
                  int width, int ld) {
  constexpr int nb = basisSize(D);
  const int cols = kNumQuantities * width;
  for (int c = 0; c < 3; ++c) {
    starProductsTile<nb, true>(width, ld, tIntTile, starTB, c, scratchTile);
    tileGemm<nb>(cols, rm.kXi[c].data(), scratchTile, dofTile, ld);
  }
}

template <int D>
void localFluxStage(int width, int ld, const real* tIntTile,
                    const real* const* negFluxT, real* faceScratch) {
  constexpr int nb = basisSize(D);
  std::uint64_t flops = 0;
  for (int lane = 0; lane < width; ++lane) {
    if (!negFluxT[lane]) {
      continue;
    }
    gemm<nb, kNumQuantities, kNumQuantities>(
        0, tIntTile + static_cast<std::size_t>(lane) * kNumQuantities, ld,
        negFluxT[lane], kNumQuantities,
        faceScratch + static_cast<std::size_t>(lane) * kNumQuantities, ld);
    flops += 2ull * nb * 81;
  }
  countFlops(flops);
}

template <int D>
void neighborFluxStage(int width, int ld, const NeighborFluxLane* lanes,
                       real* scratch, real* dofTile) {
  constexpr int nb = basisSize(D);
  std::uint64_t flops = 0;
  for (int lane = 0; lane < width; ++lane) {
    const NeighborFluxLane& ln = lanes[lane];
    if (!ln.src) {
      continue;
    }
    gemm<nb, kNumQuantities, kNumQuantities, true>(
        0, ln.src, kNumQuantities, ln.negFluxPlusT, kNumQuantities, scratch,
        kNumQuantities);
    gemm<nb, nb, kNumQuantities>(
        0, ln.fluxNeighbor, nb, scratch, kNumQuantities,
        dofTile + static_cast<std::size_t>(lane) * kNumQuantities, ld);
    flops += 2ull * nb * 81 + 2ull * nb * nb * kNumQuantities;
  }
  countFlops(flops);
}

template <int D>
void surfaceKernel(const Matrix& testTW, real scale, const real* fluxQP,
                   real* dofs, int ldc) {
  constexpr int nb = basisSize(D);
  constexpr int nq = faceQuadSize(D);
  static_assert(faceQuadSize(kMaxDegree) * kNumQuantities * sizeof(real) <=
                    4096,
                "the sign-folded flux copy lives on the stack");
  real neg[nq * kNumQuantities];
  for (int i = 0; i < nq * kNumQuantities; ++i) {
    neg[i] = -scale * fluxQP[i];
  }
  gemm<nb, nq, kNumQuantities>(0, testTW.data(), nq, neg, kNumQuantities,
                               dofs, ldc);
  countFlops(2ull * nb * kNumQuantities * nq);
}

}  // namespace

void gemmBasisTile(int nb, int n, const real* a, const real* b, real* c,
                   int ld) {
  withDegree(nb, [&](auto d) {
    tileGemm<basisSize(decltype(d)::value)>(n, a, b, c, ld);
  });
}

void zeroTile(real* tile, int nb, int cols, int ld) {
  for (int l = 0; l < nb; ++l) {
    std::memset(tile + static_cast<std::size_t>(l) * ld, 0,
                sizeof(real) * cols);
  }
}

void batchedAderPredictor(const ReferenceMatrices& rm, const real* negStarTB,
                          real* stackTiles, real* scratchTile, int width,
                          int ld) {
  withDegree(rm.nb, [&](auto d) {
    aderPredictor<decltype(d)::value>(rm, negStarTB, stackTiles, scratchTile,
                                      width, ld);
  });
}

void batchedTaylorIntegrate(const ReferenceMatrices& rm,
                            const real* stackTiles, real a, real b,
                            real* outTile, int width, int ld) {
  const int nb = rm.nb;
  const int cols = kNumQuantities * width;
  const std::size_t tileSize = static_cast<std::size_t>(nb) * ld;
  zeroTile(outTile, nb, cols, ld);
  real pa = a;  // a^{k+1}
  real pb = b;  // b^{k+1}
  real factorial = 1.0;
  for (int k = 0; k <= rm.degree; ++k) {
    factorial *= (k + 1);
    const real w = (pb - pa) / factorial;
    const real* coeff = stackTiles + static_cast<std::size_t>(k) * tileSize;
    for (int l = 0; l < nb; ++l) {
      const real* src = coeff + static_cast<std::size_t>(l) * ld;
      real* dst = outTile + static_cast<std::size_t>(l) * ld;
      for (int j = 0; j < cols; ++j) {
        dst[j] += w * src[j];
      }
    }
    pa *= a;
    pb *= b;
  }
  countFlops(static_cast<std::uint64_t>(2 * nb * cols) * (rm.degree + 1));
}

void batchedVolumeKernel(const ReferenceMatrices& rm, const real* starTB,
                         const real* tIntTile, real* dofTile,
                         real* scratchTile, int width, int ld) {
  withDegree(rm.nb, [&](auto d) {
    volumeKernel<decltype(d)::value>(rm, starTB, tIntTile, dofTile,
                                     scratchTile, width, ld);
  });
}

void batchedLocalFluxStage(int nb, int width, int ld, const real* tIntTile,
                           const real* const* negFluxT, real* faceScratch) {
  withDegree(nb, [&](auto d) {
    localFluxStage<decltype(d)::value>(width, ld, tIntTile, negFluxT,
                                       faceScratch);
  });
}

void batchedNeighborFluxStage(int nb, int width, int ld,
                              const NeighborFluxLane* lanes, real* scratch,
                              real* dofTile) {
  withDegree(nb, [&](auto d) {
    neighborFluxStage<decltype(d)::value>(width, ld, lanes, scratch, dofTile);
  });
}

void surfaceKernelPointwiseStrided(const ReferenceMatrices& rm,
                                   const Matrix& testTW, real scale,
                                   const real* fluxQP, real* dofs, int ldc) {
  // dofs -= scale * testTW (nb x nq) * fluxQP (nq x 9): fold sign and
  // scale into a temporary copy of fluxQP (identical to the contiguous
  // surfaceKernelPointwise, which forwards here with ldc = 9).
  withDegree(rm.nb, [&](auto d) {
    surfaceKernel<decltype(d)::value>(testTW, scale, fluxQP, dofs, ldc);
  });
}

}  // namespace tsg
