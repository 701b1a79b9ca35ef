#include "solver/cluster_scheduler.hpp"

#include <omp.h>

#include "common/omp_sync.hpp"
#include "perfmodel/pinning.hpp"

namespace tsg {

void ClusterScheduler::ensurePlan() {
  const int threads = std::max(1, omp_get_max_threads());
  if (plan_.threads() == threads) {
    return;
  }
  plan_ = buildThreadPlan(threads, *s_.assets, backend_);

  workerCpus_.clear();
  if (s_.cfg->pinThreads) {
    workerCpus_ = runtimeWorkerCpus(threads);
  }
}

void ClusterScheduler::runMacroCycle(PerfMonitor* perf) {
  ensurePlan();

  const ClusterLayout& clusters = s_.assets->clusters;
  const int nc = clusters.numClusters;
  const std::int64_t ticksPerMacro = clusters.ticksPerMacro();
  const std::int64_t tick0 = tick_;
  const int rate = clusters.rate;
  const real dtMin = clusters.dtMin;
  const bool haveFault = s_.fault && s_.fault->numFaces() > 0;
  const std::uint64_t predBytes = predictorBytesPerElement();
  const std::uint64_t corrBytes = correctorBytesPerElement();
  const std::uint64_t rupBytes = ruptureBytesPerFace();
  const int numThreads = plan_.threads();

  tsanRelease();  // publish plan_/state writes to the workers
#pragma omp parallel num_threads(numThreads)
  {
    tsanAcquire();
    const int tid = omp_get_thread_num();
    if (!workerCpus_.empty()) {
      pinCurrentThreadToCpu(
          workerCpus_[static_cast<std::size_t>(tid) % workerCpus_.size()]);
    }
    // tid 0 owns the per-phase wall brackets (wave start through barrier).
    PerfThreadRecorder rec(perf, nc, /*wallOwner=*/tid == 0);
    // Every thread derives the tick from its private loop counter; the
    // shared clock is only committed after the region.  All threads thus
    // agree on each tick's due set and execute the same barrier sequence.
    for (std::int64_t step = 0; step < ticksPerMacro; ++step) {
      const std::int64_t t = tick0 + step;

      // Predictor wave at tick t.
      rec.waveBegin();
      for (int c = 0; c < nc; ++c) {
        const std::int64_t span = clusters.spanOf(c);
        if (t % span != 0) {
          continue;
        }
        // The coarser neighbour consumes the buffer once per `rate` of
        // our steps; restart the accumulation at its step boundaries.
        const bool reset = t % (span * rate) == 0;
        const TileRange r = plan_.tiles(c, tid);
        rec.begin();
        for (int i = r.begin; i < r.end; ++i) {
          backend_.runPredictorTile(c, static_cast<std::size_t>(i), reset);
        }
        const std::uint64_t elems = plan_.elementsIn(c, r);
        rec.end(Phase::kPredictor, c, elems, elems * predBytes);
      }
      tsanRelease();
#pragma omp barrier
      tsanAcquire();
      rec.waveEnd(Phase::kPredictor);

      const std::int64_t tEnd = t + 1;
      if (haveFault) {
        // Rupture wave: stage flux traces of every face whose element
        // interval ends at tEnd (both face elements share the cluster, so
        // their stacks are fresh from the wave above).
        rec.waveBegin();
        for (int c = 0; c < nc; ++c) {
          const std::int64_t span = clusters.spanOf(c);
          if (tEnd % span != 0) {
            continue;
          }
          const TileRange r = plan_.faultFaces(c, tid);
          const real dt = dtMin * static_cast<real>(span);
          const real stepStart = dtMin * static_cast<real>(tEnd - span);
          const std::vector<int>& faces = s_.assets->faultFaceIdsOfCluster[c];
          rec.begin();
          for (int i = r.begin; i < r.end; ++i) {
            backend_.stageRuptureFace(faces[i], dt, stepStart);
          }
          const std::uint64_t nf = static_cast<std::uint64_t>(r.count());
          rec.end(Phase::kRuptureFlux, c, nf, nf * rupBytes);
        }
        tsanRelease();
#pragma omp barrier
        tsanAcquire();
        rec.waveEnd(Phase::kRuptureFlux);
      }

      // Corrector wave for intervals ending at tEnd.
      rec.waveBegin();
      for (int c = 0; c < nc; ++c) {
        const std::int64_t span = clusters.spanOf(c);
        if (tEnd % span != 0) {
          continue;
        }
        const TileRange r = plan_.tiles(c, tid);
        rec.begin();
        for (int i = r.begin; i < r.end; ++i) {
          backend_.runCorrectorTile(c, static_cast<std::size_t>(i), tEnd);
        }
        const std::uint64_t elems = plan_.elementsIn(c, r);
        rec.end(Phase::kCorrector, c, elems, elems * corrBytes);
      }
      tsanRelease();
#pragma omp barrier
      tsanAcquire();
      rec.waveEnd(Phase::kCorrector);
    }
    rec.flush(tid);
    tsanRelease();  // publish this worker's writes to the join
  }
  tsanAcquire();

  tick_ += ticksPerMacro;
  // Identical to summing each corrector wave's element count: cluster c
  // runs ticksPerMacro / spanOf(c) correctors per cycle.
  elementUpdates_ +=
      static_cast<std::uint64_t>(clusters.updatesPerMacroCycleLts());
}

// Analytic main-memory traffic models (streamed arrays only; reference
// matrices and flux solvers are shared and presumed cache-resident).
std::uint64_t ClusterScheduler::predictorBytesPerElement() const {
  // Read dofs + starT, write derivative stack + time integral (+ buffer).
  const std::uint64_t nbq = static_cast<std::uint64_t>(s_.assets->nbq);
  return sizeof(real) *
         (nbq + 3ull * kNumQuantities * kNumQuantities +
          nbq * (s_.cfg->degree + 1) + 2ull * nbq);
}

std::uint64_t ClusterScheduler::correctorBytesPerElement() const {
  // Read tInt + starT + 8 flux solvers + 4 neighbour sources; r/w dofs.
  const std::uint64_t nbq = static_cast<std::uint64_t>(s_.assets->nbq);
  return sizeof(real) *
         (nbq + 11ull * kNumQuantities * kNumQuantities + 4ull * nbq +
          2ull * nbq);
}

std::uint64_t ClusterScheduler::ruptureBytesPerFace() const {
  // Read both derivative stacks, write both staged flux traces.
  const std::uint64_t nbq = static_cast<std::uint64_t>(s_.assets->nbq);
  return sizeof(real) * (2ull * nbq * (s_.cfg->degree + 1) +
                         2ull * static_cast<std::uint64_t>(s_.assets->rm.nq) *
                             kNumQuantities);
}

}  // namespace tsg
