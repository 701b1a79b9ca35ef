#pragma once

// Per-run mutable solver state operated on by the kernel backends
// (src/kernels/backends/) and orchestrated by the cluster scheduler
// (src/solver/cluster_scheduler.*).  Simulation owns one SolverState per
// run.  It holds only what a run changes -- DOFs, derivative stacks,
// time integrals, LTS buffers, rupture staging, seafloor accumulators,
// receivers -- plus pointers to the run's config and to the immutable,
// shareable SimulationAssets (solver/simulation_assets.hpp), from which
// the backends and the scheduler read every static array directly.  Both
// pipelines (reference, batched) read and write the same arrays, so
// checkpoints stay interchangeable between them.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/types.hpp"
#include "gravity/gravity_surface.hpp"
#include "kernels/batched_kernels.hpp"
#include "rupture/fault_solver.hpp"
#include "solver/receivers.hpp"
#include "solver/simulation_assets.hpp"
#include "solver/solver_config.hpp"

namespace tsg {

// Seafloor uplift accumulator (elastic side of elastic-acoustic faces);
// the static geometry (quadrature points) lives in
// SimulationAssets::seafloorGeometry under the same index.
struct SeafloorFace {
  int elem, face;
  std::vector<real> uplift;  // [nq]
};

/// A zero-filled real array from calloc.  Large blocks come from
/// the OS as lazily mapped zero pages, so a page costs neither time nor
/// memory until something writes it.
class ZeroedReals {
 public:
  ZeroedReals() = default;
  explicit ZeroedReals(std::size_t n)
      : data_(static_cast<real*>(std::calloc(n, sizeof(real)))) {
    if (n > 0 && !data_) {
      throw std::bad_alloc();
    }
  }
  real* data() { return data_.get(); }
  const real* data() const { return data_.get(); }

 private:
  struct Free {
    void operator()(real* p) const { std::free(p); }
  };
  std::unique_ptr<real, Free> data_;
};

struct SolverState {
  // Immutable context (set once by Simulation's constructor).
  const SimulationAssets* assets = nullptr;
  const SolverConfig* cfg = nullptr;

  // Per-element evolving state.  The DOFs are zero-filled up front.  The
  // derived arrays start as untouched zero pages; Simulation's reset
  // touches, in parallel, only the slices a batched run writes: tInt of
  // every element, the stack of elements with stackNeeded, and the buffer
  // of elements with hasCoarserNeighbor.  Other stack and buffer pages are
  // never touched.  (The reference backend writes every element's stack,
  // so it faults those pages in on its first predictor.)
  std::vector<real> dofs;
  ZeroedReals stack, tInt, buffer;

  // Boundary subsystems (owned by Simulation; null when absent).
  GravityBoundary* gravity = nullptr;
  FaultSolver* fault = nullptr;
  std::vector<real> ruptureFlux;  // [face][2][nq*9] staging buffers

  // Observation state updated inside the corrector stage.
  std::vector<SeafloorFace> seafloorFaces;
  std::vector<Receiver> receivers;
  std::vector<std::vector<int>> receiversOfElement;

  // ---- addressing helpers ---------------------------------------------
  real* dofsOf(int e) {
    return dofs.data() + static_cast<std::size_t>(e) * assets->nbq;
  }
  const real* dofsOf(int e) const {
    return dofs.data() + static_cast<std::size_t>(e) * assets->nbq;
  }
  real* stackOf(int e) {
    return stack.data() +
           static_cast<std::size_t>(e) * assets->nbq * (cfg->degree + 1);
  }
  const real* stackOf(int e) const {
    return stack.data() +
           static_cast<std::size_t>(e) * assets->nbq * (cfg->degree + 1);
  }
  real* tIntOf(int e) {
    return tInt.data() + static_cast<std::size_t>(e) * assets->nbq;
  }
  const real* tIntOf(int e) const {
    return tInt.data() + static_cast<std::size_t>(e) * assets->nbq;
  }
  real* bufferOf(int e) {
    return buffer.data() + static_cast<std::size_t>(e) * assets->nbq;
  }

  // ---- shared stage fragments -----------------------------------------
  /// Accumulate (or reset) the LTS buffer of an element with a coarser
  /// neighbour from its freshly computed time integral.
  void accumulateLtsBuffer(int e, bool reset) {
    const int nbq = assets->nbq;
    real* buf = bufferOf(e);
    const real* ti = tIntOf(e);
    if (reset) {
      for (int i = 0; i < nbq; ++i) {
        buf[i] = ti[i];
      }
    } else {
      for (int i = 0; i < nbq; ++i) {
        buf[i] += ti[i];
      }
    }
  }

  /// Pointwise flux of a gravity or rupture face f of `elem`:
  /// dofs -= scale * testTW * flux at the face quadrature points, where
  /// `dofs` has row stride `ld` (9 for an element block, 9 * batch for a
  /// tile lane).  A gravity face integrates the eta ODE over [0, dt]
  /// from the element's stack; a rupture face reads its staged traces.
  /// `scratch` is the per-element scratch past its two nb*9 blocks.
  void applyPointwiseFace(const FaceRecord& face, int elem, int f, real dt,
                          real* dofs, int ld, real* scratch) {
    const ReferenceMatrices& rm = assets->rm;
    const std::size_t nqq = static_cast<std::size_t>(rm.nq) * kNumQuantities;
    const Matrix* testTW = &rm.faceEvalTW[f];
    const real* flux = nullptr;
    if (face.kind == FaceKind::kGravity) {
      real* fluxQp =
          scratch + 2 * static_cast<std::size_t>(cfg->degree + 1) * nqq;
      gravity->computeFlux(face.aux, rm, stackOf(elem), dt, fluxQp, scratch);
      flux = fluxQp;
    } else if (face.kind == FaceKind::kRuptureMinus) {
      flux = ruptureFlux.data() + static_cast<std::size_t>(face.aux) * 2 * nqq;
    } else {
      const FaultFace& ff = fault->faceAt(face.aux);
      testTW =
          &rm.faceEvalNeighborTW[ff.minusFace][ff.plusFace][ff.permutation];
      flux = ruptureFlux.data() +
             (static_cast<std::size_t>(face.aux) * 2 + 1) * nqq;
    }
    surfaceKernelPointwiseStrided(rm, *testTW, face.scale, flux, dofs, ld);
  }

  /// Seafloor uplift recorder: accumulate the vertical displacement
  /// increment (time integral of v_z on the elastic side) of face f.
  void recordSeafloorUplift(int seafloorIdx, int elem, int f) {
    const ReferenceMatrices& rm = assets->rm;
    SeafloorFace& rec = seafloorFaces[seafloorIdx];
    const real* ti = tIntOf(elem);
    for (int i = 0; i < rm.nq; ++i) {
      real dz = 0;
      for (int l = 0; l < rm.nb; ++l) {
        dz += rm.faceEval[f](i, l) * ti[l * kNumQuantities + kVz];
      }
      rec.uplift[i] += dz;
    }
  }

  /// Sample every receiver hosted by `elem` at the end of its interval.
  void sampleReceivers(int elem, std::int64_t tick) {
    const int nb = assets->rm.nb;
    const real* q = dofsOf(elem);
    for (int rid : receiversOfElement[elem]) {
      Receiver& r = receivers[rid];
      std::array<real, kNumQuantities> val{};
      for (int l = 0; l < nb; ++l) {
        for (int p = 0; p < kNumQuantities; ++p) {
          val[p] += r.phi[l] * q[l * kNumQuantities + p];
        }
      }
      r.times.push_back(assets->clusters.dtMin * static_cast<real>(tick));
      r.samples.push_back(val);
    }
  }
};

}  // namespace tsg
