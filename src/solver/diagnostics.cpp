#include "solver/diagnostics.hpp"

#include <vector>

#include "common/omp_sync.hpp"
#include "kernels/reference_matrices.hpp"

namespace tsg {

EnergyBudget computeEnergy(const Simulation& sim) {
  const auto& rm = referenceMatrices(sim.config().degree);
  const Mesh& mesh = sim.mesh();
  const real* dofs = sim.dofsData().data();
  const int n = mesh.numElements();
  const int nb = rm.nb;
  const int nvq = static_cast<int>(rm.volQuadXi.size());
  const std::size_t nbq = static_cast<std::size_t>(nb) * kNumQuantities;
  // Per-element partials, summed serially in element order below: the
  // result is bitwise independent of the thread count.
  std::vector<real> kinOf(n), strainOf(n);
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static) nowait
    for (int elem = 0; elem < n; ++elem) {
      const Material& m = sim.materialOf(elem);
      const real* dq = dofs + static_cast<std::size_t>(elem) * nbq;
      const real jac = 6.0 * mesh.volume(elem);
      real kin = 0, strain = 0;
      for (int i = 0; i < nvq; ++i) {
        // Same l-ascending accumulation as Simulation::evaluate.  The
        // quantity loop is unrolled so that q stays in registers: rolled,
        // it keeps q in memory, and the speed of its short body then
        // depends on the code's alignment (up to 44% between link orders).
        real q[kNumQuantities] = {};
        for (int l = 0; l < nb; ++l) {
          const real phi = rm.volEval(i, l);
#pragma GCC unroll kNumQuantities
          for (int p = 0; p < kNumQuantities; ++p) {
            q[p] += phi * dq[l * kNumQuantities + p];
          }
        }
        const real w = rm.volQuadW[i] * jac;
        kin += w * 0.5 * m.rho *
               (q[kVx] * q[kVx] + q[kVy] * q[kVy] + q[kVz] * q[kVz]);
        if (m.isAcoustic()) {
          const real p = -(q[kSxx] + q[kSyy] + q[kSzz]) / 3.0;
          strain += w * p * p / (2.0 * m.lambda);
        } else {
          const real tr = q[kSxx] + q[kSyy] + q[kSzz];
          const real ss = q[kSxx] * q[kSxx] + q[kSyy] * q[kSyy] +
                          q[kSzz] * q[kSzz] +
                          2.0 * (q[kSxy] * q[kSxy] + q[kSyz] * q[kSyz] +
                                 q[kSxz] * q[kSxz]);
          strain += w / (4.0 * m.mu) *
                    (ss - m.lambda / (3.0 * m.lambda + 2.0 * m.mu) * tr * tr);
        }
      }
      kinOf[elem] = kin;
      strainOf[elem] = strain;
    }
    tsanRelease();
  }
  tsanAcquire();
  EnergyBudget e;
  for (int elem = 0; elem < n; ++elem) {
    e.kinetic += kinOf[elem];
    if (sim.materialOf(elem).isAcoustic()) {
      e.strainAcoustic += strainOf[elem];
    } else {
      e.strainElastic += strainOf[elem];
    }
  }
  return e;
}

}  // namespace tsg
