#include "rupture/friction.hpp"

#include <algorithm>
#include <cmath>

namespace tsg {

real RateStateFastVWLaw::frictionCoefficient(real v, real psi) const {
  return a * std::asinh(v / (2.0 * v0) * std::exp(psi / a));
}

real RateStateFastVWLaw::steadyStateFriction(real v) const {
  if (v <= 0) {
    return f0;
  }
  const real fLV = f0 - (b - a) * std::log(v / v0);
  const real r = v / vw;
  const real r8 = std::pow(r, 8.0);
  return fw + (fLV - fw) / std::pow(1.0 + r8, 1.0 / 8.0);
}

real RateStateFastVWLaw::steadyStatePsi(real v) const {
  if (v <= 0) {
    v = 1e-16;
  }
  const real fss = steadyStateFriction(v);
  // f(V, psi) = a asinh( V/(2 v0) e^{psi/a} ) = fss
  // => psi = a ln( 2 v0 / V * sinh(fss / a) )
  return a * std::log(2.0 * v0 / v * std::sinh(fss / a));
}

real RateStateFastVWLaw::initialPsi(real tau, real sigmaN, real v) const {
  const real sn = std::max(-sigmaN, real(1.0));  // compressive magnitude
  const real f = tau / sn;
  // f = a asinh( V/(2 v0) e^{psi/a} ) => psi = a ln( 2 v0/V sinh(f/a) )
  return a * std::log(2.0 * v0 / std::max(v, real(1e-16)) * std::sinh(f / a));
}

real RateStateFastVWLaw::evolvePsi(real psi, real v, real dt) const {
  if (v <= 0) {
    return psi;
  }
  const real psiSs = steadyStatePsi(v);
  const real x = v * dt / L;
  return psiSs + (psi - psiSs) * std::exp(-x);
}

void solveFrictionLsw(const LinearSlipWeakeningLaw& law, real slip,
                      real tauLock, real sigmaN, real etaS, real& tau, real& v) {
  const real sn = std::max(-sigmaN, real(0));  // no frictional strength in tension
  const real strength = law.cohesion + law.frictionCoefficient(slip) * sn;
  if (tauLock <= strength) {
    tau = tauLock;
    v = 0;
    return;
  }
  tau = strength;
  v = (tauLock - strength) / etaS;
}

void solveFrictionRs(const RateStateFastVWLaw& law, real psi, real tauLock,
                     real sigmaN, real etaS, real& tau, real& v) {
  const real sn = std::max(-sigmaN, real(0));
  if (sn <= 0) {
    // Fault in tension: no frictional resistance.
    tau = 0;
    v = tauLock / etaS;
    return;
  }
  // g(V) = tauLock - etaS V - sn f(V, psi) = 0, with
  // f = a asinh(x), x = V/(2 v0) e^{psi/a}, df/dV = a e^{psi/a} / (2 v0
  // sqrt(1 + x^2)).  g is strictly decreasing; start from 1e-9.
  const real e = std::exp(psi / law.a);
  real vi = 1e-9;
  for (int it = 0; it < 60; ++it) {
    const real x = vi / (2.0 * law.v0) * e;
    const real g = tauLock - etaS * vi - sn * (law.a * std::asinh(x));
    const real dg =
        -etaS - sn * (law.a * e / (2.0 * law.v0 * std::sqrt(1.0 + x * x)));
    real step = -g / dg;
    // Keep the iterate positive; g(0) = tauLock >= 0 guarantees a
    // non-negative root.
    if (vi + step <= 0) {
      step = -0.5 * vi;
    }
    vi += step;
    if (std::abs(step) < 1e-12 * (1.0 + vi)) {
      break;
    }
  }
  v = std::max(vi, real(0));
  tau = std::max(tauLock - etaS * v, real(0));
}

}  // namespace tsg
