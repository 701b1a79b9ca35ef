#include "kernels/backends/kernel_backend.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "kernels/backends/batched_backend.hpp"
#include "kernels/backends/reference_backend.hpp"

namespace tsg {

real* backendThreadScratch(int slot, std::size_t size) {
  // One cache line of slack for the 64-byte alignment.
  constexpr std::size_t kSlack = 64 / sizeof(real);
  static thread_local std::vector<real> bufs[2];
  std::vector<real>& buf = bufs[slot];
  if (buf.size() < size + kSlack) {
    buf.resize(size + kSlack);
  }
  void* p = buf.data();
  std::size_t space = buf.size() * sizeof(real);
  return static_cast<real*>(std::align(64, size * sizeof(real), p, space));
}

void KernelBackend::stageRuptureFace(int face, real dt, real stepStartTime) {
  const FaultFace& ff = s_.fault->faceAt(face);
  real* scratch = backendThreadScratch(0, s_.scratchSize);
  real* traces = scratch + 2 * s_.nbq;
  real* fm = s_.ruptureFlux.data() +
             static_cast<std::size_t>(face) * 2 * s_.rm->nq * kNumQuantities;
  real* fp = fm + s_.rm->nq * kNumQuantities;
  s_.fault->computeFluxes(face, *s_.rm, s_.stackOf(ff.minusElem),
                          s_.stackOf(ff.plusElem), dt, stepStartTime, fm, fp,
                          traces);
}

std::unique_ptr<KernelBackend> makeKernelBackend(SolverState& state) {
  switch (state.cfg->kernelPath) {
    case KernelPath::kReference:
      return std::make_unique<ReferenceBackend>(state);
    case KernelPath::kBatched:
      return std::make_unique<BatchedBackend>(state);
  }
  throw std::invalid_argument("makeKernelBackend: unknown kernel path");
}

}  // namespace tsg
