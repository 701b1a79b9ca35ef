#pragma once

// Friction laws for dynamic rupture (paper Eq. 2).
//
// Two laws, matching the paper's experiments:
//  * linear slip-weakening (LSW) -- used in the megathrust benchmark
//    (Sec. 6.1, after Andrews 1976),
//  * fast-velocity-weakening rate-and-state (RS-FVW) -- used in the Palu
//    scenario (Sec. 6.2, after Dunham et al. / Pelties et al. 2014).
//
// Both are formulated against the fault-local Godunov ("locked") traction:
// given the shear traction magnitude tauLock the fault would carry if
// welded, the slip rate V and the transmitted traction tau satisfy
//   tau = tauLock - etaS * V,       (impedance radiation damping)
//   tau = strength(V, state).       (friction)

#include "common/types.hpp"

namespace tsg {

struct LinearSlipWeakeningLaw {
  real muS = 0.677;     // static friction coefficient
  real muD = 0.525;     // dynamic friction coefficient
  real dC = 0.40;       // slip-weakening distance [m]
  real cohesion = 0.0;  // [Pa]

  /// Friction coefficient at accumulated slip `slip`.
  real frictionCoefficient(real slip) const {
    const real w = slip < dC ? slip / dC : 1.0;
    return muS - (muS - muD) * w;
  }
};

struct RateStateFastVWLaw {
  real a = 0.01;    // direct-effect parameter
  real b = 0.014;   // evolution-effect parameter
  real L = 0.2;     // state evolution distance [m]
  real f0 = 0.6;    // reference friction coefficient
  real v0 = 1e-6;   // reference slip rate [m/s]
  real fw = 0.1;    // fully weakened friction coefficient
  real vw = 0.1;    // weakening slip rate [m/s]

  /// f(V, psi) = a asinh( V/(2 v0) exp(psi/a) ).
  real frictionCoefficient(real v, real psi) const;
  /// Steady-state friction coefficient with flash-heating-style weakening.
  real steadyStateFriction(real v) const;
  /// Steady-state state variable psi_ss(V) with f(V, psi_ss) = f_ss(V).
  real steadyStatePsi(real v) const;
  /// psi consistent with initial (traction, normal stress, slip rate).
  real initialPsi(real tau, real sigmaN, real v) const;
  /// Integrate dpsi/dt = -V/L (psi - psi_ss(V)) over dt (exponential
  /// update, exact for frozen V).
  real evolvePsi(real psi, real v, real dt) const;
};

struct FaultPointState {
  real slip = 0;       // accumulated scalar slip [m]
  real slip1 = 0;      // slip components in the face tangent frame
  real slip2 = 0;
  real psi = 0;        // rate-and-state state variable
  real slipRate = 0;   // |V| of the last update [m/s]
  real tau1 = 0;       // last total shear traction (face frame) [Pa]
  real tau2 = 0;
  real sigmaN = 0;     // last total normal stress (negative = compression)
  real ruptureTime = -1;  // first time |V| exceeded 0.001 m/s
};

/// Solve the coupled friction/impedance problem for LSW.
/// tauLock: locked shear traction magnitude (>= 0); sigmaN: total normal
/// stress (negative in compression); etaS: combined shear impedance.
/// Outputs transmitted traction magnitude and slip rate.
void solveFrictionLsw(const LinearSlipWeakeningLaw& law, real slip,
                      real tauLock, real sigmaN, real etaS, real& tau, real& v);

/// Newton solve of tauLock - etaS V = strength(V, psi) for RS-FVW.
void solveFrictionRs(const RateStateFastVWLaw& law, real psi, real tauLock,
                     real sigmaN, real etaS, real& tau, real& v);

}  // namespace tsg
