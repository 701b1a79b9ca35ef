#include "kernels/backends/reference_backend.hpp"

#include "kernels/element_kernels.hpp"

namespace tsg {

void ReferenceBackend::runPredictorTile(int cluster, std::size_t tile,
                                        bool resetBuffer) {
  const int e = s_.clusters->elementsOfCluster[cluster][tile];
  predictor(e);
  if (s_.hasCoarserNeighbor[e]) {
    s_.accumulateLtsBuffer(e, resetBuffer);
  }
}

void ReferenceBackend::runCorrectorTile(int cluster, std::size_t tile,
                                        std::int64_t tick) {
  corrector(s_.clusters->elementsOfCluster[cluster][tile], tick);
}

void ReferenceBackend::predictor(int elem) {
  const int c = s_.clusters->cluster[elem];
  const real dt = s_.clusters->dtMin * static_cast<real>(s_.clusters->spanOf(c));
  real* scratch = backendThreadScratch(0, s_.scratchSize);
  aderPredictor(*s_.rm,
                s_.starTB.data() +
                    static_cast<std::size_t>(s_.orderedIndexOf[elem]) * 3 *
                        kNumQuantities * kNumQuantities,
                s_.dofsOf(elem), s_.stackOf(elem), scratch);
  taylorIntegrate(*s_.rm, s_.stackOf(elem), 0.0, dt, s_.tIntOf(elem));
}

void ReferenceBackend::corrector(int elem, std::int64_t tick) {
  const ReferenceMatrices& rm = *s_.rm;
  const ClusterLayout& clusters = *s_.clusters;
  const int c = clusters.cluster[elem];
  const std::int64_t span = clusters.spanOf(c);
  const real dt = clusters.dtMin * static_cast<real>(span);
  real* scratch = backendThreadScratch(0, s_.scratchSize);  // nbq
  real* scratch2 = scratch + s_.nbq;        // nbq (neighbour integrals)
  real* scratchBig = scratch2 + s_.nbq;     // gravity/rupture traces
  real* fluxQp = scratchBig +
                 2 * static_cast<std::size_t>(s_.cfg->degree + 1) * rm.nq *
                     kNumQuantities;

  const int stride = kNumQuantities * kNumQuantities;
  const std::size_t oi = static_cast<std::size_t>(s_.orderedIndexOf[elem]);
  real* q = s_.dofsOf(elem);
  volumeKernel(rm, s_.starTB.data() + oi * 3 * stride, s_.tIntOf(elem), q,
               scratch);

  for (int f = 0; f < 4; ++f) {
    const std::size_t idx = static_cast<std::size_t>(elem) * 4 + f;
    // Pre-negated flux-solver matrix of this face (its ordered slot).
    const real* negFluxMinusT =
        s_.negFluxMinusTB.data() + (oi * 4 + f) * stride;
    const FaceInfo& info = s_.mesh->faces[elem][f];
    switch (s_.faceKind[idx]) {
      case FaceKind::kRegular: {
        surfaceKernel(rm, rm.fluxLocal[f], negFluxMinusT, s_.tIntOf(elem), q,
                      scratch);
        const int nb = info.neighbor;
        const int nbCluster = clusters.cluster[nb];
        const real* src = nullptr;
        if (nbCluster == c) {
          src = s_.tIntOf(nb);
        } else if (nbCluster > c) {
          // Coarser neighbour: integrate its Taylor expansion over our
          // sub-interval of its (rate times as long) timestep.
          const std::int64_t rel = (tick - span) % (span * clusters.rate);
          const real off = clusters.dtMin * static_cast<real>(rel);
          taylorIntegrate(rm, s_.stackOf(nb), off, off + dt, scratch2);
          src = scratch2;
        } else {
          // Finer neighbour: its buffer accumulated both sub-intervals.
          src = s_.buffer.data() + static_cast<std::size_t>(nb) * s_.nbq;
        }
        surfaceKernel(rm,
                      rm.fluxNeighbor[f][info.neighborFace][info.permutation],
                      s_.negFluxPlusTB.data() + (oi * 4 + f) * stride, src,
                      q, scratch);
        break;
      }
      case FaceKind::kBoundaryFolded:
        surfaceKernel(rm, rm.fluxLocal[f], negFluxMinusT, s_.tIntOf(elem), q,
                      scratch);
        break;
      case FaceKind::kGravity:
        s_.gravity->computeFlux(s_.faceAux[idx], rm, s_.stackOf(elem), dt,
                                fluxQp, scratchBig);
        surfaceKernelPointwise(rm, rm.faceEvalTW[f], s_.faceScale[idx], fluxQp,
                               q);
        break;
      case FaceKind::kRuptureMinus: {
        const real* staged = s_.ruptureFlux.data() +
                             static_cast<std::size_t>(s_.faceAux[idx]) * 2 *
                                 rm.nq * kNumQuantities;
        surfaceKernelPointwise(rm, rm.faceEvalTW[f], s_.faceScale[idx], staged,
                               q);
        break;
      }
      case FaceKind::kRupturePlus: {
        const FaultFace& ff = s_.fault->faceAt(s_.faceAux[idx]);
        const real* staged =
            s_.ruptureFlux.data() +
            (static_cast<std::size_t>(s_.faceAux[idx]) * 2 + 1) * rm.nq *
                kNumQuantities;
        surfaceKernelPointwise(
            rm,
            rm.faceEvalNeighborTW[ff.minusFace][ff.plusFace][ff.permutation],
            s_.faceScale[idx], staged, q);
        break;
      }
    }

    const int sf = s_.seafloorIndexOfFace[idx];
    if (sf >= 0) {
      s_.recordSeafloorUplift(sf, elem, f);
    }
  }

  s_.sampleReceivers(elem, tick);
}

}  // namespace tsg
