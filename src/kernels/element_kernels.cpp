#include "kernels/element_kernels.hpp"

#include <cstring>
#include <vector>

#include "common/flops.hpp"
#include "common/matrix.hpp"

namespace tsg {

void gemmAccRaw(int m, int n, int k, const real* a, const real* b, real* c) {
  detail::gemmAccImpl(m, n, k, a, k, b, n, c, n);
  countFlops(2ull * m * n * k);
}

void aderPredictor(const ReferenceMatrices& rm, const real* starT,
                   const real* dofs, real* stack, real* scratch) {
  const int nbq = dofCount(rm);
  std::memcpy(stack, dofs, sizeof(real) * nbq);
  for (int k = 0; k < rm.degree; ++k) {
    const real* cur = stack + static_cast<std::size_t>(k) * nbq;
    real* next = stack + static_cast<std::size_t>(k + 1) * nbq;
    std::memset(next, 0, sizeof(real) * nbq);
    for (int c = 0; c < 3; ++c) {
      std::memset(scratch, 0, sizeof(real) * nbq);
      gemmAccRaw(rm.nb, kNumQuantities, rm.nb, rm.dXi[c].data(), cur, scratch);
      // next -= scratch * starT[c]
      // (accumulate with negated star: fold the minus by negating scratch)
      for (int i = 0; i < nbq; ++i) {
        scratch[i] = -scratch[i];
      }
      gemmAccRaw(rm.nb, kNumQuantities, kNumQuantities, scratch,
                 starT + c * kNumQuantities * kNumQuantities, next);
    }
  }
}

void taylorIntegrate(const ReferenceMatrices& rm, const real* stack, real a,
                     real b, real* out) {
  const int nbq = dofCount(rm);
  std::memset(out, 0, sizeof(real) * nbq);
  real pa = a;  // a^{k+1}
  real pb = b;  // b^{k+1}
  real factorial = 1.0;
  for (int k = 0; k <= rm.degree; ++k) {
    factorial *= (k + 1);
    const real w = (pb - pa) / factorial;
    const real* coeff = stack + static_cast<std::size_t>(k) * nbq;
    for (int i = 0; i < nbq; ++i) {
      out[i] += w * coeff[i];
    }
    pa *= a;
    pb *= b;
  }
  countFlops(static_cast<std::uint64_t>(2 * nbq) * (rm.degree + 1));
}

void volumeKernel(const ReferenceMatrices& rm, const real* starT,
                  const real* tInt, real* dofs, real* scratch) {
  const int nbq = dofCount(rm);
  for (int c = 0; c < 3; ++c) {
    std::memset(scratch, 0, sizeof(real) * nbq);
    gemmAccRaw(rm.nb, kNumQuantities, kNumQuantities, tInt,
               starT + c * kNumQuantities * kNumQuantities, scratch);
    gemmAccRaw(rm.nb, kNumQuantities, rm.nb, rm.kXi[c].data(), scratch, dofs);
  }
}

void surfaceKernel(const ReferenceMatrices& rm, const Matrix& faceMatrix,
                   const real* negFluxT, const real* tIntSrc, real* dofs,
                   real* scratch) {
  std::memset(scratch, 0, sizeof(real) * dofCount(rm));
  gemmAccRaw(rm.nb, kNumQuantities, kNumQuantities, tIntSrc, negFluxT,
             scratch);
  gemmAccRaw(rm.nb, kNumQuantities, rm.nb, faceMatrix.data(), scratch, dofs);
}

std::uint64_t aderPredictorFlops(const ReferenceMatrices& rm) {
  const std::uint64_t perIter =
      3ull * (2ull * rm.nb * kNumQuantities * rm.nb +
              2ull * rm.nb * kNumQuantities * kNumQuantities);
  return perIter * rm.degree;
}

std::uint64_t correctorFlops(const ReferenceMatrices& rm) {
  const std::uint64_t volume =
      3ull * (2ull * rm.nb * kNumQuantities * kNumQuantities +
              2ull * rm.nb * kNumQuantities * rm.nb);
  const std::uint64_t surface =
      8ull * (2ull * rm.nb * kNumQuantities * kNumQuantities +
              2ull * rm.nb * kNumQuantities * rm.nb);
  return volume + surface;
}

}  // namespace tsg
