#pragma once

// Energy diagnostics of the coupled wavefield.
//
// Total mechanical energy
//   E = int ( rho |v|^2 / 2  +  strain energy ) dV
// with the isotropic strain energy density
//   e_el = 1/(4 mu) ( sigma:sigma - lambda/(3 lambda + 2 mu) tr(sigma)^2 )
// in elastic media and  e_ac = p^2 / (2 K)  in acoustic media.
//
// In a closed (rigid-wall) domain the continuous coupled problem conserves
// E; the upwind DG scheme may only dissipate it -- a strong stability
// invariant used by the test suite (and a useful production sanity check:
// growing energy = instability).

#include "solver/simulation.hpp"

namespace tsg {

struct EnergyBudget {
  real kinetic = 0;
  real strainElastic = 0;
  real strainAcoustic = 0;

  real total() const { return kinetic + strainElastic + strainAcoustic; }
};

/// Quadrature-exact energy integrals of the current simulation state.
///
/// Cost: one pass over all elements that reads the basis tabulated at the
/// volume quadrature points (ReferenceMatrices::volEval) and the DOFs in
/// place -- no basis evaluation per point.  The element loop is threaded;
/// per-element partials are summed serially in element order, so the
/// result is bitwise identical at every thread count.
EnergyBudget computeEnergy(const Simulation& sim);

}  // namespace tsg
