// End-to-end chain in one run: dynamic earthquake rupture -> seismic
// waves -> seafloor uplift -> ocean acoustic waves -> tsunami onset.
//
// The shipped megathrust preset (45-degree dipping thrust fault under a
// 2 km ocean) nucleates, ruptures, and sources the sea surface; the
// program reports the rupture growth, the radiated moment proxy, the
// seafloor uplift, and the sea-surface response over time.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "scenario/spec.hpp"
#include "solver/simulation.hpp"

using namespace tsg;

int main() {
  const ScenarioBundle s =
      loadPresetScenario(TSG_PRESET_DIR "/megathrust.cfg", 2);
  const auto simPtr = makeSimulation(s);
  Simulation& sim = *simPtr;

  std::printf("mesh: %d elements, %d fault faces, dt_min = %.2e s\n",
              sim.mesh().numElements(), sim.fault()->numFaces(), sim.dtMin());
  std::printf("%7s %12s %14s %14s %12s\n", "t [s]", "max V [m/s]",
              "slip integral", "max uplift [m]", "max eta [m]");

  const auto& rm = referenceMatrices(sim.config().degree);
  for (int step = 1; step <= 10; ++step) {
    sim.advanceTo(step * 1.0);
    real maxUplift = 0;
    for (const auto& sf : sim.seafloor()) {
      maxUplift = std::max(maxUplift, std::abs(sf.uplift));
    }
    real maxEta = 0;
    for (const auto& ss : sim.seaSurface()) {
      maxEta = std::max(maxEta, std::abs(ss.eta));
    }
    std::printf("%7.1f %12.3f %14.4g %14.4f %12.5f\n", sim.time(),
                sim.fault()->maxSlipRate(),
                sim.fault()->totalSlipIntegral(rm, sim.mesh()), maxUplift,
                maxEta);
  }

  // Seismic moment proxy M0 = mu * integral(slip dA).
  const real mu = s.materials[0].mu;
  const real m0 = mu * sim.fault()->totalSlipIntegral(rm, sim.mesh());
  const real mw = m0 > 0 ? (2.0 / 3.0) * (std::log10(m0) - 9.1) : 0;
  std::printf("\nseismic moment ~ %.3g N m  (Mw ~ %.2f)\n", m0, mw);
  std::printf("The tsunami signal (max eta) lags the rupture: gravity waves"
              "\nstart from the uplifted water column after the acoustic\n"
              "transients, exactly the superposition Sec. 1 describes.\n");
  return 0;
}
