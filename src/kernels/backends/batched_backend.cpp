#include "kernels/backends/batched_backend.hpp"

#include <cstring>

#include "kernels/batched_kernels.hpp"
#include "kernels/element_kernels.hpp"

namespace tsg {

void BatchedBackend::prepare() {
  if (ba_) {
    return;
  }
  // Fetched lazily at the first advance.  The batching is cached per
  // batch size inside SimulationAssets and shared across all runs on the
  // same assets; its operands view the assets' single copy.
  ba_ = s_.assets->batchedAssets(s_.cfg->batchSize);
}

void BatchedBackend::runPredictorTile(int cluster, std::size_t tile,
                                      bool resetBuffer) {
  predictorBatch(batchOf(cluster, tile), resetBuffer);
}

void BatchedBackend::runCorrectorTile(int cluster, std::size_t tile,
                                      std::int64_t tick) {
  correctorBatch(batchOf(cluster, tile), tick);
}

void BatchedBackend::predictorBatch(const ElementBatch& batch, bool reset) {
  const ReferenceMatrices& rm = *s_.rm;
  const ClusterLayout& clusters = *s_.clusters;
  const BatchedAssets& ba = *ba_;
  const int width = batch.width;
  const int ld = kNumQuantities * ba.layout.batchSize();
  const int* elems = ba.layout.elements().data() + batch.begin;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  real* stackTiles = backendThreadScratch(1, ba.batchScratchSize);
  real* scratchTile = stackTiles + (s_.cfg->degree + 1) * tileSize;
  real* tIntTile = scratchTile + tileSize;
  const real* negStarTB =
      ba.negStarTB.data() +
      static_cast<std::size_t>(batch.begin) * 3 * kNumQuantities *
          kNumQuantities;

  gatherTile(s_.dofs.data(), elems, width, rm.nb, s_.nbq, ld, stackTiles);
  batchedAderPredictor(rm, negStarTB, stackTiles, scratchTile, width, ld);
  const real dt =
      clusters.dtMin * static_cast<real>(clusters.spanOf(batch.cluster));
  batchedTaylorIntegrate(rm, stackTiles, 0.0, dt, tIntTile, width, ld);

  // Scatter the time integral for every lane, but the derivative stack
  // only for elements whose stack is read outside this batch (gravity and
  // rupture faces, coarser LTS neighbours) -- for all other elements the
  // stack lives and dies in the tiles.
  for (int lane = 0; lane < width; ++lane) {
    const int e = elems[lane];
    if (!ba.stackNeeded[e]) {
      continue;
    }
    for (int k = 0; k <= s_.cfg->degree; ++k) {
      const real* tile = stackTiles + static_cast<std::size_t>(k) * tileSize +
                         static_cast<std::size_t>(lane) * kNumQuantities;
      real* dst = s_.stackOf(e) + static_cast<std::size_t>(k) * s_.nbq;
      for (int l = 0; l < rm.nb; ++l) {
        std::memcpy(dst + static_cast<std::size_t>(l) * kNumQuantities,
                    tile + static_cast<std::size_t>(l) * ld,
                    sizeof(real) * kNumQuantities);
      }
    }
  }
  scatterTile(tIntTile, elems, width, rm.nb, s_.nbq, ld, s_.tInt.data());

  for (int lane = 0; lane < width; ++lane) {
    const int e = elems[lane];
    if (s_.hasCoarserNeighbor[e]) {
      s_.accumulateLtsBuffer(e, reset);
    }
  }
}

void BatchedBackend::correctorBatch(const ElementBatch& batch,
                                    std::int64_t tick) {
  const ReferenceMatrices& rm = *s_.rm;
  const ClusterLayout& clusters = *s_.clusters;
  const BatchedAssets& ba = *ba_;
  const int c = batch.cluster;
  const std::int64_t span = clusters.spanOf(c);
  const real dt = clusters.dtMin * static_cast<real>(span);
  const int width = batch.width;
  const int ld = kNumQuantities * ba.layout.batchSize();
  const int* elems = ba.layout.elements().data() + batch.begin;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  const int stride = kNumQuantities * kNumQuantities;

  real* dofTile = backendThreadScratch(1, ba.batchScratchSize);
  real* tIntTile = dofTile + tileSize;
  real* faceScratch = tIntTile + tileSize;
  // Fourth scratch tile (degree >= 1, enforced by referenceMatrices,
  // guarantees it): per-lane contiguous nb x 9 slots holding
  // coarser-neighbour sub-interval integrals so the neighbour-flux stage
  // can run as one fused pass over the batch.
  real* coarseInt = faceScratch + tileSize;
  static thread_local std::vector<const real*> negFluxPtrs;
  static thread_local std::vector<NeighborFluxLane> nbrLanes;
  negFluxPtrs.resize(ba.layout.batchSize());
  nbrLanes.resize(ba.layout.batchSize());
  // Per-element scratch (neighbour integrals, gravity/rupture traces) --
  // same regions as the reference corrector.
  real* scratch = backendThreadScratch(0, s_.scratchSize);
  real* scratchBig = scratch + 2 * s_.nbq;
  real* fluxQp = scratchBig +
                 2 * static_cast<std::size_t>(s_.cfg->degree + 1) * rm.nq *
                     kNumQuantities;

  gatherTile(s_.dofs.data(), elems, width, rm.nb, s_.nbq, ld, dofTile);
  gatherTile(s_.tInt.data(), elems, width, rm.nb, s_.nbq, ld, tIntTile);

  const real* starTB =
      ba.starTB.data() + static_cast<std::size_t>(batch.begin) * 3 * stride;
  batchedVolumeKernel(rm, starTB, tIntTile, dofTile, faceScratch, width, ld);

  for (int f = 0; f < 4; ++f) {
    // (a) Per-lane pre-pass: stage the flux-solver products of regular /
    // folded-boundary faces into the face scratch tile; apply pointwise
    // gravity and rupture fluxes directly (their slot in each element's
    // accumulation sequence is exactly here, matching the reference).
    zeroTile(faceScratch, rm.nb, kNumQuantities * width, ld);
    for (int lane = 0; lane < width; ++lane) {
      const BatchFaceInfo& info =
          ba.batchFaces[(static_cast<std::size_t>(batch.begin) + lane) * 4 + f];
      real* laneDofs =
          dofTile + static_cast<std::size_t>(lane) * kNumQuantities;
      negFluxPtrs[lane] = nullptr;
      switch (info.kind) {
        case FaceKind::kRegular:
        case FaceKind::kBoundaryFolded: {
          // Pre-negated flux-solver matrix, the same operand the
          // reference backend reads (SimulationAssets::negFluxMinusTB).
          negFluxPtrs[lane] =
              ba.negFluxMinusTB.data() +
              ((static_cast<std::size_t>(batch.begin) + lane) * 4 + f) *
                  stride;
          break;
        }
        case FaceKind::kGravity:
          s_.gravity->computeFlux(info.aux, rm, s_.stackOf(elems[lane]), dt,
                                  fluxQp, scratchBig);
          surfaceKernelPointwiseStrided(rm, rm.faceEvalTW[f], info.scale,
                                        fluxQp, laneDofs, ld);
          break;
        case FaceKind::kRuptureMinus: {
          const real* staged = s_.ruptureFlux.data() +
                               static_cast<std::size_t>(info.aux) * 2 *
                                   rm.nq * kNumQuantities;
          surfaceKernelPointwiseStrided(rm, rm.faceEvalTW[f], info.scale,
                                        staged, laneDofs, ld);
          break;
        }
        case FaceKind::kRupturePlus: {
          const FaultFace& ff = s_.fault->faceAt(info.aux);
          const real* staged =
              s_.ruptureFlux.data() +
              (static_cast<std::size_t>(info.aux) * 2 + 1) * rm.nq *
                  kNumQuantities;
          surfaceKernelPointwiseStrided(
              rm,
              rm.faceEvalNeighborTW[ff.minusFace][ff.plusFace][ff.permutation],
              info.scale, staged, laneDofs, ld);
          break;
        }
      }

      // Seafloor uplift recorder (identical to the reference corrector;
      // reads only this element's time integral).
      if (info.seafloor >= 0) {
        s_.recordSeafloorUplift(info.seafloor, elems[lane], f);
      }
    }
    batchedLocalFluxStage(rm.nb, width, ld, tIntTile, negFluxPtrs.data(),
                          faceScratch);

    // (b) One blocked GEMM per run of consecutive regular/boundary lanes:
    // dofs -= fluxLocal[f] * staged flux products.
    int lane = 0;
    while (lane < width) {
      const auto kindOf = [&](int l) {
        return ba.batchFaces[(static_cast<std::size_t>(batch.begin) + l) * 4 +
                             f]
            .kind;
      };
      if (kindOf(lane) != FaceKind::kRegular &&
          kindOf(lane) != FaceKind::kBoundaryFolded) {
        ++lane;
        continue;
      }
      int end = lane + 1;
      while (end < width && (kindOf(end) == FaceKind::kRegular ||
                             kindOf(end) == FaceKind::kBoundaryFolded)) {
        ++end;
      }
      gemmBasisTile(
          rm.nb, kNumQuantities * (end - lane), rm.fluxLocal[f].data(),
          faceScratch + static_cast<std::size_t>(lane) * kNumQuantities,
          dofTile + static_cast<std::size_t>(lane) * kNumQuantities, ld);
      lane = end;
    }

    // (c) Neighbour contributions of regular faces: resolve each lane's
    // time-integral source (integrating coarser neighbours into this
    // lane's contiguous coarseInt slot), then run the whole batch through
    // one fused per-lane GEMM pass.
    for (int lane2 = 0; lane2 < width; ++lane2) {
      const BatchFaceInfo& info =
          ba.batchFaces[(static_cast<std::size_t>(batch.begin) + lane2) * 4 +
                        f];
      NeighborFluxLane& ln = nbrLanes[lane2];
      if (info.kind != FaceKind::kRegular) {
        ln.src = nullptr;
        continue;
      }
      if (info.relation == 0) {
        ln.src = s_.tIntOf(info.neighbor);
      } else if (info.relation == 1) {
        // Coarser neighbour: integrate its Taylor expansion over our
        // sub-interval of its (rate times as long) timestep.
        const std::int64_t rel = (tick - span) % (span * clusters.rate);
        const real off = clusters.dtMin * static_cast<real>(rel);
        real* slot = coarseInt + static_cast<std::size_t>(lane2) * s_.nbq;
        taylorIntegrate(rm, s_.stackOf(info.neighbor), off, off + dt, slot);
        ln.src = slot;
      } else {
        // Finer neighbour: its buffer accumulated both sub-intervals.
        ln.src = s_.buffer.data() +
                 static_cast<std::size_t>(info.neighbor) * s_.nbq;
      }
      ln.negFluxPlusT =
          ba.negFluxPlusTB.data() +
          ((static_cast<std::size_t>(batch.begin) + lane2) * 4 + f) * stride;
      ln.fluxNeighbor =
          rm.fluxNeighbor[f][info.neighborFace][info.permutation].data();
    }
    batchedNeighborFluxStage(rm.nb, width, ld, nbrLanes.data(), scratch,
                             dofTile);
  }

  scatterTile(dofTile, elems, width, rm.nb, s_.nbq, ld, s_.dofs.data());

  // Receivers hosted by elements of this batch: sample at the interval end.
  for (int lane = 0; lane < width; ++lane) {
    s_.sampleReceivers(elems[lane], tick);
  }
}

}  // namespace tsg
