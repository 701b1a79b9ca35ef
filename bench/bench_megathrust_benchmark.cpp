// Reproduces Fig. 3: the 3D megathrust earthquake-tsunami benchmark
// ("Scenario A" of Madden et al. 2021) -- the fully coupled model against
// the one-way linked shallow-water model.
//
// Pipeline (both branches driven by the same dynamic-rupture source):
//  (a) fully coupled: 3D elastic + acoustic + gravity; the sea surface
//      eta(x) along the y = 0 cross-section is read from the gravity
//      boundary;
//  (b) one-way linked: the same earthquake run WITHOUT the water layer
//      records the time-dependent seafloor displacement, which is
//      bilinearly interpolated onto a Cartesian grid and drives the
//      nonlinear shallow-water solver (with the linearly sloping beach
//      that the coupled model lacks, as in the paper).
//
// Expected shape (paper Fig. 3b): the two sea-surface profiles agree at
// the low (tsunami) frequencies; the coupled profile additionally carries
// short-wavelength ocean-acoustic oscillations; differences appear near
// the beach which only the linked model contains.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "linking/one_way_linking.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation.hpp"
#include "swe/swe_solver.hpp"

using namespace tsg;

namespace {

real envScale() {
  if (const char* s = std::getenv("TSG_BENCH_SCALE")) {
    return std::atof(s);
  }
  return 1.0;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  // The scale sets the simulated window only; the mesh is the shipped
  // megathrust.cfg preset padded to 15 km around the fault region, with a
  // 2.2 km nucleation patch.
  const real tEnd =
      14.0 * std::max(real(0.25), std::min(envScale(), real(2)));
  const int degree = 2;
  const real xMin = -30000, xMax = 21000, yMin = -21000, yMax = 21000;
  ScenarioSpec spec =
      loadScenarioSpec(ConfigFile::load(TSG_PRESET_DIR "/megathrust.cfg"));
  spec.mesh.x.front().lo = xMin;
  spec.mesh.x.back().hi = xMax;
  spec.mesh.y.front().lo = yMin;
  spec.mesh.y.back().hi = yMax;
  spec.fault.nucleation.front().radius = 2200;
  spec.receivers.clear();
  const real waterDepth = spec.bathymetry.baseDepth;

  // ---- (a) fully coupled run -------------------------------------------
  std::printf("building coupled megathrust scenario...\n");
  const ScenarioBundle coupled = buildScenario(spec, degree);
  std::printf("coupled mesh: %d elements\n", coupled.mesh.numElements());
  const auto simPtr = makeSimulation(coupled);
  Simulation& sim = *simPtr;
  // Temporal sea-surface series at a probe over the fault: the coupled
  // model superimposes ocean-acoustic oscillations on the tsunami signal
  // (paper: periods < 5.3 s trailing the seismic fronts).
  const real probeX = -4000.0, probeY = 0.0;
  std::vector<real> etaSeriesC, etaTimesC;
  sim.onMacroStep([&](real t) {
    etaTimesC.push_back(t);
    etaSeriesC.push_back(
        sim.gravitySurface()->sampleEtaNearest(probeX, probeY));
  });
  std::printf("running fully coupled model to t = %.1f s (dt_min = %.2e, "
              "%d clusters)...\n",
              tEnd, sim.dtMin(), sim.clusters().numClusters);
  sim.advanceTo(tEnd);
  std::printf("coupled done at t = %.2f s; max slip rate seen %.2f m/s\n",
              sim.time(), sim.fault()->maxSlipRate());

  // ---- (b) earthquake-only run + one-way linked SWE ---------------------
  // Same earthquake without the water column: traction-free seafloor, no
  // gravity (the water material stays in the table, unused).
  spec.mesh.z.pop_back();
  spec.boundary.top = BoundaryType::kFreeSurface;
  spec.gravity = 0;
  const auto eqPtr = makeSimulation(buildScenario(spec, degree));
  Simulation& eq = *eqPtr;
  const int gridN = 72;
  SeafloorUpliftRecorder recorder(gridN, gridN, xMin, yMin,
                                  (xMax - xMin) / gridN,
                                  (yMax - yMin) / gridN);
  // The earthquake-only model has no elastic-acoustic interface, so the
  // seafloor displacement is tracked by integrating v_z at probe points
  // just below the (free) surface after each macro step -- the paper's
  // "seafloor displacement recorded on the unstructured mesh".
  std::vector<Vec3> probes;
  std::vector<int> probeElems;
  std::vector<real> probeUplift;
  for (int j = 0; j < gridN; ++j) {
    for (int i = 0; i < gridN; ++i) {
      const real x = xMin + (i + 0.5) * (xMax - xMin) / gridN;
      const real y = yMin + (j + 0.5) * (yMax - yMin) / gridN;
      probes.push_back({x, y, -waterDepth - 300.0});
    }
  }
  for (auto& p : probes) {
    probeElems.push_back(eq.findElement(p));
  }
  probeUplift.assign(probes.size(), 0.0);
  real lastT = 0;
  eq.onMacroStep([&](real t) {
    const real dt = t - lastT;
    lastT = t;
    std::vector<SeafloorSample> samples;
    for (std::size_t k = 0; k < probes.size(); ++k) {
      if (probeElems[k] < 0) {
        continue;
      }
      const auto q =
          eq.evaluate(probeElems[k], eq.mesh().toReference(probeElems[k], probes[k]));
      probeUplift[k] += q[kVz] * dt;
      samples.push_back({probes[k][0], probes[k][1], probeUplift[k]});
    }
    recorder.recordSnapshot(t, samples);
  });
  std::printf("running earthquake-only model for the linked branch...\n");
  eq.advanceTo(tEnd);

  // Shallow-water tsunami driven by the recorded uplift; linearly sloping
  // beach on the +x side (only in the linked model, as in the paper).
  SweConfig swc;
  swc.nx = 160;
  swc.ny = 120;
  swc.x0 = xMin;
  swc.y0 = yMin;
  const real beachStart = xMax - 6000.0;
  swc.dx = (xMax + 8000.0 - xMin) / swc.nx;
  swc.dy = (yMax - yMin) / swc.ny;
  SweSolver swe(swc);
  swe.setBathymetry([&](real x, real) {
    if (x < beachStart) {
      return -waterDepth;
    }
    // Beach crossing sea level.
    return -waterDepth + (x - beachStart) * (waterDepth + 50.0) / 10000.0;
  });
  swe.initializeLakeAtRest(0.0);
  swe.setBedMotion(recorder.bedMotion());
  const int gauge = swe.addGauge("probe", probeX, probeY);
  swe.advanceTo(tEnd);

  // ---- Fig. 3b: cross-section at y = 0 ----------------------------------
  Table table({"x_km", "eta_coupled_m", "eta_linked_m", "uplift_m"});
  const GravityBoundary* gb = sim.gravitySurface();
  std::vector<real> etaC, etaL;
  for (int i = 0; i < swc.nx; ++i) {
    const real x = swc.x0 + (i + 0.5) * swc.dx;
    const real c = (x < xMax) ? gb->sampleEtaNearest(x, 0.0) : 0.0;
    const real lnk = swe.isWet(i, swc.ny / 2) ? swe.surface(i, swc.ny / 2) : 0.0;
    etaC.push_back(c);
    etaL.push_back(lnk);
    table.row() << x / 1000.0 << c << lnk << recorder.finalUplift(x, 0.0);
  }
  table.print("Fig. 3b: sea-surface height along y = 0 at t = " +
              std::to_string(tEnd) + " s");
  table.writeCsv("megathrust_cross_section.csv");

  // Shape metrics: low-pass agreement and coupled-only high-frequency
  // content.
  auto smooth = [](const std::vector<real>& v) {
    std::vector<real> s(v.size());
    const int w = 6;
    for (int i = 0; i < static_cast<int>(v.size()); ++i) {
      real acc = 0;
      int n = 0;
      for (int k = std::max(0, i - w);
           k < std::min<int>(v.size(), i + w + 1); ++k) {
        acc += v[k];
        ++n;
      }
      s[i] = acc / n;
    }
    return s;
  };
  const auto cS = smooth(etaC);
  const auto lS = smooth(etaL);
  real dot = 0, nc = 0, nl = 0, hfC = 0, hfL = 0;
  int valid = 0;
  for (std::size_t i = 0; i < etaC.size(); ++i) {
    const real x = swc.x0 + (i + 0.5) * swc.dx;
    if (x >= xMax - 2000.0) {
      continue;  // beach region: models intentionally differ
    }
    dot += cS[i] * lS[i];
    nc += cS[i] * cS[i];
    nl += lS[i] * lS[i];
    hfC += (etaC[i] - cS[i]) * (etaC[i] - cS[i]);
    hfL += (etaL[i] - lS[i]) * (etaL[i] - lS[i]);
    ++valid;
  }
  const real corr = dot / std::sqrt(std::max(nc * nl, real(1e-30)));

  // Temporal high-frequency content at the probe: RMS of the detrended
  // (first-difference) series per unit time, normalised by the signal
  // range -- ocean-acoustic reverberation shows up here in the coupled
  // model only.
  auto temporalHf = [](const std::vector<real>& t, const std::vector<real>& v) {
    if (v.size() < 8) {
      return real(0);
    }
    real range = 0;
    for (real x : v) {
      range = std::max(range, std::abs(x));
    }
    if (range <= 0) {
      return real(0);
    }
    real acc = 0;
    int n = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      const real dtS = t[i] - t[i - 1];
      if (dtS <= 0) {
        continue;
      }
      const real rate = (v[i] - v[i - 1]) / dtS;
      acc += rate * rate;
      ++n;
    }
    return std::sqrt(acc / n) / range;  // [1/s]
  };
  const real hfTimeC = temporalHf(etaTimesC, etaSeriesC);
  const SweGauge& g = swe.gauge(gauge);
  const real hfTimeL = temporalHf(g.times, g.surface);

  Table m({"metric", "value", "paper_expectation"});
  m.row() << "lowpass_correlation" << corr << "high (profiles agree)";
  m.row() << "temporal_hf_coupled_1_per_s" << hfTimeC
          << ">> linked (acoustic modes)";
  m.row() << "temporal_hf_linked_1_per_s" << hfTimeL << "tsunami band only";
  m.row() << "spatial_hf_coupled" << std::sqrt(hfC / valid) << "-";
  m.row() << "spatial_hf_linked" << std::sqrt(hfL / valid) << "-";
  m.row() << "max_eta_coupled" << *std::max_element(etaC.begin(), etaC.end())
          << "~ max uplift";
  m.row() << "max_eta_linked" << *std::max_element(etaL.begin(), etaL.end())
          << "~ max uplift";
  m.print("Fig. 3 shape metrics");
  m.writeCsv("megathrust_metrics.csv");
  return 0;
}
