#pragma once

// Shared mutable solver state operated on by the kernel backends
// (src/kernels/backends/) and orchestrated by the cluster scheduler
// (src/solver/cluster_scheduler.*).  Simulation owns one SolverState per
// run; the static per-element/per-face data lives in the immutable,
// shareable SimulationAssets (solver/simulation_assets.hpp) and is
// exposed here through read-only ConstSpan views under the same field
// names, so the backends read the exact same expressions whether a run
// owns its assets or shares them with an ensemble.  Both pipelines
// (reference, batched) read and write the same arrays and checkpoints
// stay interchangeable between them.

#include <cstdint>
#include <vector>

#include "common/span.hpp"
#include "common/types.hpp"
#include "geometry/mesh.hpp"
#include "gravity/gravity_surface.hpp"
#include "kernels/reference_matrices.hpp"
#include "rupture/fault_solver.hpp"
#include "solver/receivers.hpp"
#include "solver/simulation_assets.hpp"
#include "solver/solver_config.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

// Seafloor uplift accumulator (elastic side of elastic-acoustic faces);
// the static geometry (quadrature points) lives in
// SimulationAssets::seafloorGeometry under the same index.
struct SeafloorFace {
  int elem, face;
  std::vector<real> uplift;  // [nq]
};

struct SolverState {
  // Immutable structural context (set once by Simulation's constructor).
  const SimulationAssets* assets = nullptr;
  const Mesh* mesh = nullptr;
  const ReferenceMatrices* rm = nullptr;
  const SolverConfig* cfg = nullptr;
  const ClusterLayout* clusters = nullptr;
  int nbq = 0;                  // nb * 9, reals per modal block
  std::size_t scratchSize = 0;  // per-element kernel scratch [reals]

  // Per-element evolving state.
  std::vector<real> dofs, stack, tInt, buffer;

  // Static kernel operands in cluster order (views into assets; see
  // SimulationAssets): element e's slots start at orderedIndexOf[e].
  ConstSpan<int> orderedIndexOf;     // [elem]
  ConstSpan<real> starTB;            // [orderedElem][3][81], transposed
  ConstSpan<real> negFluxMinusTB;    // [orderedElem*4 + f][81], negated
  ConstSpan<real> negFluxPlusTB;     // [orderedElem*4 + f][81], negated

  // Static per-element data (views into SimulationAssets).
  ConstSpan<std::uint8_t> hasCoarserNeighbor;

  // Static per-face data, indexed [elem*4 + f] (views into assets).
  ConstSpan<FaceKind> faceKind;
  ConstSpan<int> faceAux;      // gravity/rupture index per face
  ConstSpan<real> faceScale;   // 2 A_f / |J|
  ConstSpan<int> seafloorIndexOfFace;  // seafloorFaces index or -1

  // Boundary subsystems (owned by Simulation; null when absent).
  GravityBoundary* gravity = nullptr;
  FaultSolver* fault = nullptr;
  std::vector<real> ruptureFlux;  // [face][2][nq*9] staging buffers
  // Rupture-phase workload and per-cluster fault-face id lists (views
  // into assets; precomputed from mesh topology, so they are populated
  // even before setupFault -- the scheduler gates the rupture wave on
  // `fault` being configured).  The rupture wave of cluster c iterates
  // exactly its own faces (ascending face order, so the staging order is
  // reproducible) instead of scanning ALL faces and filtering by cluster.
  ConstSpan<std::int64_t> faultFacesOfCluster;
  ConstSpan<std::vector<int>> faultFaceIdsOfCluster;

  // Observation state updated inside the corrector stage.
  std::vector<SeafloorFace> seafloorFaces;
  std::vector<Receiver> receivers;
  std::vector<std::vector<int>> receiversOfElement;

  // ---- addressing helpers ---------------------------------------------
  real* dofsOf(int e) {
    return dofs.data() + static_cast<std::size_t>(e) * nbq;
  }
  const real* dofsOf(int e) const {
    return dofs.data() + static_cast<std::size_t>(e) * nbq;
  }
  real* stackOf(int e) {
    return stack.data() +
           static_cast<std::size_t>(e) * nbq * (cfg->degree + 1);
  }
  const real* stackOf(int e) const {
    return stack.data() +
           static_cast<std::size_t>(e) * nbq * (cfg->degree + 1);
  }
  real* tIntOf(int e) {
    return tInt.data() + static_cast<std::size_t>(e) * nbq;
  }
  const real* tIntOf(int e) const {
    return tInt.data() + static_cast<std::size_t>(e) * nbq;
  }
  real* bufferOf(int e) {
    return buffer.data() + static_cast<std::size_t>(e) * nbq;
  }

  // ---- shared stage fragments -----------------------------------------
  /// Accumulate (or reset) the LTS buffer of an element with a coarser
  /// neighbour from its freshly computed time integral.
  void accumulateLtsBuffer(int e, bool reset) {
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

  /// Seafloor uplift recorder: accumulate the vertical displacement
  /// increment (time integral of v_z on the elastic side) of face f.
  void recordSeafloorUplift(int seafloorIdx, int elem, int f) {
    SeafloorFace& rec = seafloorFaces[seafloorIdx];
    const real* ti = tIntOf(elem);
    for (int i = 0; i < rm->nq; ++i) {
      real dz = 0;
      for (int l = 0; l < rm->nb; ++l) {
        dz += rm->faceEval[f](i, l) * ti[l * kNumQuantities + kVz];
      }
      rec.uplift[i] += dz;
    }
  }

  /// Sample every receiver hosted by `elem` at the end of its interval.
  void sampleReceivers(int elem, std::int64_t tick) {
    const real* q = dofsOf(elem);
    for (int rid : receiversOfElement[elem]) {
      Receiver& r = receivers[rid];
      std::array<real, kNumQuantities> val{};
      for (int l = 0; l < rm->nb; ++l) {
        for (int p = 0; p < kNumQuantities; ++p) {
          val[p] += r.phi[l] * q[l * kNumQuantities + p];
        }
      }
      r.times.push_back(clusters->dtMin * static_cast<real>(tick));
      r.samples.push_back(val);
    }
  }
};

}  // namespace tsg
