#include "kernels/backends/reference_backend.hpp"

#include "kernels/element_kernels.hpp"

namespace tsg {

void ReferenceBackend::runPredictorTile(int cluster, std::size_t tile,
                                        bool resetBuffer) {
  const int e = s_.assets->clusters.elementsOfCluster[cluster][tile];
  predictor(e);
  if (s_.assets->hasCoarserNeighbor[e]) {
    s_.accumulateLtsBuffer(e, resetBuffer);
  }
}

void ReferenceBackend::runCorrectorTile(int cluster, std::size_t tile,
                                        std::int64_t tick) {
  corrector(s_.assets->clusters.elementsOfCluster[cluster][tile], tick);
}

void ReferenceBackend::predictor(int elem) {
  const SimulationAssets& a = *s_.assets;
  const int c = a.clusters.cluster[elem];
  const real dt = a.clusters.dtMin * static_cast<real>(a.clusters.spanOf(c));
  real* scratch = backendThreadScratch(0, a.scratchSize);
  aderPredictor(a.rm,
                a.starTB.data() +
                    static_cast<std::size_t>(a.orderedIndexOf[elem]) * 3 *
                        kNumQuantities * kNumQuantities,
                s_.dofsOf(elem), s_.stackOf(elem), scratch);
  taylorIntegrate(a.rm, s_.stackOf(elem), 0.0, dt, s_.tIntOf(elem));
}

void ReferenceBackend::corrector(int elem, std::int64_t tick) {
  const SimulationAssets& a = *s_.assets;
  const ReferenceMatrices& rm = a.rm;
  const ClusterLayout& clusters = a.clusters;
  const int c = clusters.cluster[elem];
  const std::int64_t span = clusters.spanOf(c);
  const real dt = clusters.dtMin * static_cast<real>(span);
  real* scratch = backendThreadScratch(0, a.scratchSize);  // nbq
  real* scratch2 = scratch + a.nbq;     // nbq (neighbour integrals)
  real* scratchBig = scratch2 + a.nbq;  // gravity/rupture traces

  const int stride = kNumQuantities * kNumQuantities;
  const std::size_t oi = static_cast<std::size_t>(a.orderedIndexOf[elem]);
  real* q = s_.dofsOf(elem);
  volumeKernel(rm, a.starTB.data() + oi * 3 * stride, s_.tIntOf(elem), q,
               scratch);

  for (int f = 0; f < 4; ++f) {
    const FaceRecord& face = a.faceTable[oi * 4 + f];
    // Pre-negated flux-solver matrix of this face (its ordered slot).
    const real* negFluxMinusT = a.negFluxMinusTB.data() + (oi * 4 + f) * stride;
    switch (face.kind) {
      case FaceKind::kRegular: {
        surfaceKernel(rm, rm.fluxLocal[f], negFluxMinusT, s_.tIntOf(elem), q,
                      scratch);
        const int nb = face.neighbor;
        const real* src = nullptr;
        if (face.relation == 0) {
          src = s_.tIntOf(nb);
        } else if (face.relation == 1) {
          // Coarser neighbour: integrate its Taylor expansion over our
          // sub-interval of its (rate times as long) timestep.
          const std::int64_t rel = (tick - span) % (span * clusters.rate);
          const real off = clusters.dtMin * static_cast<real>(rel);
          taylorIntegrate(rm, s_.stackOf(nb), off, off + dt, scratch2);
          src = scratch2;
        } else {
          // Finer neighbour: its buffer accumulated both sub-intervals.
          src = s_.bufferOf(nb);
        }
        surfaceKernel(
            rm, rm.fluxNeighbor[f][face.neighborFace][face.permutation],
            a.negFluxPlusTB.data() + (oi * 4 + f) * stride, src, q, scratch);
        break;
      }
      case FaceKind::kBoundaryFolded:
        surfaceKernel(rm, rm.fluxLocal[f], negFluxMinusT, s_.tIntOf(elem), q,
                      scratch);
        break;
      default:
        s_.applyPointwiseFace(face, elem, f, dt, q, kNumQuantities, scratchBig);
        break;
    }

    if (face.seafloor >= 0) {
      s_.recordSeafloorUplift(face.seafloor, elem, f);
    }
  }

  s_.sampleReceivers(elem, tick);
}

}  // namespace tsg
