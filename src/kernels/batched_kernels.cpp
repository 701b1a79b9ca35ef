#include "kernels/batched_kernels.hpp"

#include <cstring>
#include <vector>

#include "common/flops.hpp"
#include "common/matrix.hpp"

namespace tsg {

namespace {

// Row block of the tile GEMM: BM rows of C, all n columns, blocked 8/4/1
// over j.  Every output keeps the gemmAccImpl floating-point contract
// (zeroed accumulator, ascending-k single-rounded mul/add, one final add
// into C), so values are bitwise-independent of the blocking shape.
//
// `unroll 1` keeps the fixed-width bj loops as loops for the vectorizer.
// At -O3, GCC's early complete unrolling (which may grow code size only at
// -O3) otherwise flattens them into scalar adds first: a Release build's
// kernels ran 1.4x slower than -O2.  At -O2 the code is unchanged.
template <int BM>
inline void gemmRows(int n, int k, const real* a, int lda, const real* b,
                     int ldb, real* c, int ldc) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    real acc[BM][8] = {};
    for (int p = 0; p < k; ++p) {
      const real* bp = b + static_cast<std::size_t>(p) * ldb + j;
      for (int bi = 0; bi < BM; ++bi) {
        const real av = a[static_cast<std::size_t>(bi) * lda + p];
#pragma GCC unroll 1
        for (int bj = 0; bj < 8; ++bj) {
          acc[bi][bj] += av * bp[bj];
        }
      }
    }
    for (int bi = 0; bi < BM; ++bi) {
#pragma GCC unroll 1
      for (int bj = 0; bj < 8; ++bj) {
        c[static_cast<std::size_t>(bi) * ldc + j + bj] += acc[bi][bj];
      }
    }
  }
  for (; j + 4 <= n; j += 4) {
    real acc[BM][4] = {};
    for (int p = 0; p < k; ++p) {
      const real* bp = b + static_cast<std::size_t>(p) * ldb + j;
      for (int bi = 0; bi < BM; ++bi) {
        const real av = a[static_cast<std::size_t>(bi) * lda + p];
#pragma GCC unroll 1
        for (int bj = 0; bj < 4; ++bj) {
          acc[bi][bj] += av * bp[bj];
        }
      }
    }
    for (int bi = 0; bi < BM; ++bi) {
#pragma GCC unroll 1
      for (int bj = 0; bj < 4; ++bj) {
        c[static_cast<std::size_t>(bi) * ldc + j + bj] += acc[bi][bj];
      }
    }
  }
  for (; j < n; ++j) {
    for (int bi = 0; bi < BM; ++bi) {
      real acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += a[static_cast<std::size_t>(bi) * lda + p] *
               b[static_cast<std::size_t>(p) * ldb + j];
      }
      c[static_cast<std::size_t>(bi) * ldc + j] += acc;
    }
  }
}

// Dispatch over the m blocking without the per-call FLOP accounting --
// the per-lane loops below issue thousands of tiny GEMMs per tile, so
// flops are counted once per tile instead.
inline void gemmAccDispatch(int m, int n, int k, const real* a, int lda,
                            const real* b, int ldb, real* c, int ldc) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    gemmRows<4>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                c + static_cast<std::size_t>(i) * ldc, ldc);
  }
  for (; i + 2 <= m; i += 2) {
    gemmRows<2>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                c + static_cast<std::size_t>(i) * ldc, ldc);
  }
  for (; i < m; ++i) {
    gemmRows<1>(n, k, a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                c + static_cast<std::size_t>(i) * ldc, ldc);
  }
}

// Per-lane star products on a tile: c[lane] += a[lane] * starB[lane][dir]
// for every lane, with one FLOP-accounting call for the whole tile.
inline void starProductsTile(int nb, int width, int ld, const real* aTile,
                             const real* starB, int dir, real* cTile) {
  for (int lane = 0; lane < width; ++lane) {
    gemmAccDispatch(nb, kNumQuantities, kNumQuantities,
                    aTile + static_cast<std::size_t>(lane) * kNumQuantities,
                    ld,
                    starB + (static_cast<std::size_t>(lane) * 3 + dir) *
                                kNumQuantities * kNumQuantities,
                    kNumQuantities,
                    cTile + static_cast<std::size_t>(lane) * kNumQuantities,
                    ld);
  }
  countFlops(2ull * nb * 81 * width);
}

}  // namespace

void gemmAccStrided(int m, int n, int k, const real* a, int lda, const real* b,
                    int ldb, real* c, int ldc) {
  // Like detail::gemmAccImpl but with blocked (not scalar) m and n tails:
  // at degree 2 the basis size 10 leaves 2 of 10 rows in the tail, which
  // dominates the wide 9*batch tile GEMMs if handled one value at a time.
  gemmAccDispatch(m, n, k, a, lda, b, ldb, c, ldc);
  countFlops(2ull * m * n * k);
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
  const int nb = rm.nb;
  const int cols = kNumQuantities * width;
  const std::size_t tileSize = static_cast<std::size_t>(nb) * ld;
  for (int k = 0; k < rm.degree; ++k) {
    const real* cur = stackTiles + static_cast<std::size_t>(k) * tileSize;
    real* next = stackTiles + static_cast<std::size_t>(k + 1) * tileSize;
    zeroTile(next, nb, cols, ld);
    for (int c = 0; c < 3; ++c) {
      // One blocked GEMM for the whole batch (reference: per-element
      // dXi[c] * cur), then the per-lane 9x9 star products on the hot
      // tile.  The reference negates the dXi product before multiplying
      // by starT; here the sign lives in the pre-negated star matrices
      // instead -- each product term flips sign exactly (IEEE), so every
      // accumulated output is bitwise-identical.
      zeroTile(scratchTile, nb, cols, ld);
      gemmAccStrided(nb, cols, nb, rm.dXi[c].data(), nb, cur, ld, scratchTile,
                     ld);
      starProductsTile(nb, width, ld, scratchTile, negStarTB, c, next);
    }
  }
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
  const int nb = rm.nb;
  const int cols = kNumQuantities * width;
  for (int c = 0; c < 3; ++c) {
    zeroTile(scratchTile, nb, cols, ld);
    starProductsTile(nb, width, ld, tIntTile, starTB, c, scratchTile);
    gemmAccStrided(nb, cols, nb, rm.kXi[c].data(), nb, scratchTile, ld,
                   dofTile, ld);
  }
}

void batchedLocalFluxStage(int nb, int width, int ld, const real* tIntTile,
                           const real* const* negFluxT, real* faceScratch) {
  std::uint64_t flops = 0;
  for (int lane = 0; lane < width; ++lane) {
    if (!negFluxT[lane]) {
      continue;
    }
    gemmAccDispatch(nb, kNumQuantities, kNumQuantities,
                    tIntTile + static_cast<std::size_t>(lane) * kNumQuantities,
                    ld, negFluxT[lane], kNumQuantities,
                    faceScratch +
                        static_cast<std::size_t>(lane) * kNumQuantities,
                    ld);
    flops += 2ull * nb * 81;
  }
  countFlops(flops);
}

void batchedNeighborFluxStage(int nb, int width, int ld,
                              const NeighborFluxLane* lanes, real* scratch,
                              real* dofTile) {
  const int nbq = nb * kNumQuantities;
  std::uint64_t flops = 0;
  for (int lane = 0; lane < width; ++lane) {
    const NeighborFluxLane& ln = lanes[lane];
    if (!ln.src) {
      continue;
    }
    std::memset(scratch, 0, sizeof(real) * nbq);
    gemmAccDispatch(nb, kNumQuantities, kNumQuantities, ln.src,
                    kNumQuantities, ln.negFluxPlusT, kNumQuantities, scratch,
                    kNumQuantities);
    gemmAccDispatch(nb, kNumQuantities, nb, ln.fluxNeighbor, nb, scratch,
                    kNumQuantities,
                    dofTile + static_cast<std::size_t>(lane) * kNumQuantities,
                    ld);
    flops += 2ull * nb * 81 + 2ull * nb * nb * kNumQuantities;
  }
  countFlops(flops);
}

void surfaceKernelPointwiseStrided(const ReferenceMatrices& rm,
                                   const Matrix& testTW, real scale,
                                   const real* fluxQP, real* dofs, int ldc) {
  // dofs -= scale * testTW (nb x nq) * fluxQP (nq x 9): fold sign and
  // scale into a temporary copy of fluxQP (identical to the contiguous
  // surfaceKernelPointwise, which forwards here with ldc = 9).
  const int n = rm.nq * kNumQuantities;
  real neg[kNumQuantities * 128];
  real* buf = neg;
  std::vector<real> heap;
  if (n > static_cast<int>(sizeof(neg) / sizeof(real))) {
    heap.resize(n);
    buf = heap.data();
  }
  for (int i = 0; i < n; ++i) {
    buf[i] = -scale * fluxQP[i];
  }
  gemmAccStrided(rm.nb, kNumQuantities, rm.nq, testTW.data(), rm.nq, buf,
                 kNumQuantities, dofs, ldc);
}

}  // namespace tsg
