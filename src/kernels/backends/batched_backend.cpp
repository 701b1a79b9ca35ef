#include "kernels/backends/batched_backend.hpp"

#include <cstring>

#include "kernels/batched_kernels.hpp"
#include "kernels/element_kernels.hpp"

namespace tsg {

BatchedBackend::BatchedBackend(SolverState& state)
    : KernelBackend(state),
      ba_(state.assets->batchedAssets(state.cfg->batchSize)),
      tileScratchSize_(static_cast<std::size_t>(state.cfg->degree + 3) *
                       state.assets->rm.nb * kNumQuantities *
                       ba_->layout.batchSize()) {}

void BatchedBackend::runPredictorTile(int cluster, std::size_t tile,
                                      bool resetBuffer) {
  predictorBatch(batchOf(cluster, tile), resetBuffer);
}

void BatchedBackend::runCorrectorTile(int cluster, std::size_t tile,
                                      std::int64_t tick) {
  correctorBatch(batchOf(cluster, tile), tick);
}

void BatchedBackend::predictorBatch(const ElementBatch& batch, bool reset) {
  const SimulationAssets& a = *s_.assets;
  const ReferenceMatrices& rm = a.rm;
  const BatchedAssets& ba = *ba_;
  const int width = batch.width;
  const int ld = kNumQuantities * ba.layout.batchSize();
  const int* elems = ba.layout.elements().data() + batch.begin;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  real* stackTiles = backendThreadScratch(1, tileScratchSize_);
  real* scratchTile = stackTiles + (s_.cfg->degree + 1) * tileSize;
  real* tIntTile = scratchTile + tileSize;
  const real* negStarTB =
      ba.negStarTB.data() +
      static_cast<std::size_t>(batch.begin) * 3 * kNumQuantities *
          kNumQuantities;

  gatherTile(s_.dofs.data(), elems, width, rm.nb, a.nbq, ld, stackTiles);
  batchedAderPredictor(rm, negStarTB, stackTiles, scratchTile, width, ld);
  const real dt =
      a.clusters.dtMin * static_cast<real>(a.clusters.spanOf(batch.cluster));
  batchedTaylorIntegrate(rm, stackTiles, 0.0, dt, tIntTile, width, ld);

  // Scatter the time integral for every lane, but the derivative stack
  // only for elements whose stack is read outside this batch (gravity and
  // rupture faces, coarser LTS neighbours) -- for all other elements the
  // stack lives and dies in the tiles.
  for (int lane = 0; lane < width; ++lane) {
    const int e = elems[lane];
    if (!a.stackNeeded[e]) {
      continue;
    }
    for (int k = 0; k <= s_.cfg->degree; ++k) {
      const real* tile = stackTiles + static_cast<std::size_t>(k) * tileSize +
                         static_cast<std::size_t>(lane) * kNumQuantities;
      real* dst = s_.stackOf(e) + static_cast<std::size_t>(k) * a.nbq;
      for (int l = 0; l < rm.nb; ++l) {
        std::memcpy(dst + static_cast<std::size_t>(l) * kNumQuantities,
                    tile + static_cast<std::size_t>(l) * ld,
                    sizeof(real) * kNumQuantities);
      }
    }
  }
  scatterTile(tIntTile, elems, width, rm.nb, a.nbq, ld, s_.tInt.data());

  for (int lane = 0; lane < width; ++lane) {
    const int e = elems[lane];
    if (a.hasCoarserNeighbor[e]) {
      s_.accumulateLtsBuffer(e, reset);
    }
  }
}

void BatchedBackend::correctorBatch(const ElementBatch& batch,
                                    std::int64_t tick) {
  const SimulationAssets& a = *s_.assets;
  const ReferenceMatrices& rm = a.rm;
  const ClusterLayout& clusters = a.clusters;
  const BatchedAssets& ba = *ba_;
  const int c = batch.cluster;
  const std::int64_t span = clusters.spanOf(c);
  const real dt = clusters.dtMin * static_cast<real>(span);
  const int width = batch.width;
  const int ld = kNumQuantities * ba.layout.batchSize();
  const int* elems = ba.layout.elements().data() + batch.begin;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  const int stride = kNumQuantities * kNumQuantities;
  // The batch's face records and operand slots, [lane*4 + f].
  const std::size_t firstFace = static_cast<std::size_t>(batch.begin) * 4;
  const FaceRecord* faces = a.faceTable.data() + firstFace;
  const real* negFluxMinusTB = ba.negFluxMinusTB.data() + firstFace * stride;
  const real* negFluxPlusTB = ba.negFluxPlusTB.data() + firstFace * stride;

  real* dofTile = backendThreadScratch(1, tileScratchSize_);
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
  real* scratch = backendThreadScratch(0, a.scratchSize);
  real* scratchBig = scratch + 2 * a.nbq;

  gatherTile(s_.dofs.data(), elems, width, rm.nb, a.nbq, ld, dofTile);
  gatherTile(s_.tInt.data(), elems, width, rm.nb, a.nbq, ld, tIntTile);

  const real* starTB =
      ba.starTB.data() + static_cast<std::size_t>(batch.begin) * 3 * stride;
  batchedVolumeKernel(rm, starTB, tIntTile, dofTile, faceScratch, width, ld);

  const auto usesFluxMatrix = [&](int lane, int f) {
    const FaceKind kind = faces[lane * 4 + f].kind;
    return kind == FaceKind::kRegular || kind == FaceKind::kBoundaryFolded;
  };
  for (int f = 0; f < 4; ++f) {
    // (a) Per-lane pre-pass: stage the flux-solver products of regular /
    // folded-boundary faces into the face scratch tile; apply pointwise
    // gravity and rupture fluxes directly (their slot in each element's
    // accumulation sequence is exactly here, matching the reference).
    zeroTile(faceScratch, rm.nb, kNumQuantities * width, ld);
    for (int lane = 0; lane < width; ++lane) {
      const FaceRecord& face = faces[lane * 4 + f];
      negFluxPtrs[lane] = nullptr;
      if (usesFluxMatrix(lane, f)) {
        // Pre-negated flux-solver matrix, the same operand the
        // reference backend reads (SimulationAssets::negFluxMinusTB).
        negFluxPtrs[lane] =
            negFluxMinusTB + static_cast<std::size_t>(lane * 4 + f) * stride;
      } else {
        s_.applyPointwiseFace(
            face, elems[lane], f, dt,
            dofTile + static_cast<std::size_t>(lane) * kNumQuantities, ld,
            scratchBig);
      }

      // Seafloor uplift recorder (identical to the reference corrector;
      // reads only this element's time integral).
      if (face.seafloor >= 0) {
        s_.recordSeafloorUplift(face.seafloor, elems[lane], f);
      }
    }
    batchedLocalFluxStage(rm.nb, width, ld, tIntTile, negFluxPtrs.data(),
                          faceScratch);

    // (b) One blocked GEMM per run of consecutive regular/boundary lanes:
    // dofs -= fluxLocal[f] * staged flux products.
    int lane = 0;
    while (lane < width) {
      if (!usesFluxMatrix(lane, f)) {
        ++lane;
        continue;
      }
      int end = lane + 1;
      while (end < width && usesFluxMatrix(end, f)) {
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
      const FaceRecord& face = faces[lane2 * 4 + f];
      NeighborFluxLane& ln = nbrLanes[lane2];
      if (face.kind != FaceKind::kRegular) {
        ln.src = nullptr;
        continue;
      }
      if (face.relation == 0) {
        ln.src = s_.tIntOf(face.neighbor);
      } else if (face.relation == 1) {
        // Coarser neighbour: integrate its Taylor expansion over our
        // sub-interval of its (rate times as long) timestep.
        const std::int64_t rel = (tick - span) % (span * clusters.rate);
        const real off = clusters.dtMin * static_cast<real>(rel);
        real* slot = coarseInt + static_cast<std::size_t>(lane2) * a.nbq;
        taylorIntegrate(rm, s_.stackOf(face.neighbor), off, off + dt, slot);
        ln.src = slot;
      } else {
        // Finer neighbour: its buffer accumulated both sub-intervals.
        ln.src = s_.bufferOf(face.neighbor);
      }
      ln.negFluxPlusT =
          negFluxPlusTB + static_cast<std::size_t>(lane2 * 4 + f) * stride;
      ln.fluxNeighbor =
          rm.fluxNeighbor[f][face.neighborFace][face.permutation].data();
    }
    batchedNeighborFluxStage(rm.nb, width, ld, nbrLanes.data(), scratch,
                             dofTile);
  }

  scatterTile(dofTile, elems, width, rm.nb, a.nbq, ld, s_.dofs.data());

  // Receivers hosted by elements of this batch: sample at the interval end.
  for (int lane = 0; lane < width; ++lane) {
    s_.sampleReceivers(elems[lane], tick);
  }
}

}  // namespace tsg
