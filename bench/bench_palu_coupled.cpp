// Reproduces Figs. 1 and 5: the fully-coupled Palu, Sulawesi
// earthquake-tsunami simulation vs the one-way linked shallow-water model.
//
// Fig. 1 claims checked:
//  * sustained supershear rupture (rupture speed > c_s from the fault
//    rupture-time field),
//  * seismic / acoustic waves visible in the vertical sea-surface
//    velocity; tsunami sourced within the bay.
// Fig. 5 claims checked (snapshots of sea-surface displacement):
//  * both models produce similar overall wave heights and patterns,
//  * the one-way linked fronts are *sharper* (hydrostatic model), the
//    coupled field smoother (non-hydrostatic filtering),
//  * waves reflect off the bay coasts.
//
// Scaled-down synthetic bay (see DESIGN.md): the shipped palu.cfg preset
// coarsened and cropped; the run length is tunable via TSG_BENCH_SCALE
// (default sized for minutes, not hours).

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

struct SurfaceGrid {
  int n = 48;
  real x0, y0, dx, dy;
  std::vector<real> eta;

  SurfaceGrid(real xMin, real xMax, real yMin, real yMax, int cells)
      : n(cells), x0(xMin), y0(yMin), dx((xMax - xMin) / cells),
        dy((yMax - yMin) / cells), eta(static_cast<std::size_t>(cells) * cells,
                                       0) {}

  void bin(const std::vector<SurfaceSample>& samples) {
    std::vector<real> sum(eta.size(), 0), cnt(eta.size(), 0);
    for (const auto& s : samples) {
      const int i = static_cast<int>((s.x - x0) / dx);
      const int j = static_cast<int>((s.y - y0) / dy);
      if (i < 0 || i >= n || j < 0 || j >= n) {
        continue;
      }
      sum[j * n + i] += s.eta;
      cnt[j * n + i] += 1;
    }
    for (std::size_t c = 0; c < eta.size(); ++c) {
      eta[c] = cnt[c] > 0 ? sum[c] / cnt[c] : 0;
    }
  }

  real maxAbs() const {
    real m = 0;
    for (real v : eta) {
      m = std::max(m, std::abs(v));
    }
    return m;
  }

  /// Mean |grad eta| / max|eta|: a front-sharpness measure.
  real sharpness() const {
    real acc = 0;
    int cnt = 0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i + 1 < n; ++i) {
        acc += std::abs(eta[j * n + i + 1] - eta[j * n + i]) / dx;
        ++cnt;
      }
    }
    const real m = maxAbs();
    return m > 0 ? acc / cnt / m : 0;
  }

  void writeCsv(const std::string& path) const {
    Table t({"x", "y", "eta"});
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        t.row() << x0 + (i + 0.5) * dx << y0 + (j + 0.5) * dy << eta[j * n + i];
      }
    }
    t.writeCsv(path);
  }
};

real correlation(const SurfaceGrid& a, const SurfaceGrid& b) {
  real dot = 0, na = 0, nb = 0;
  for (std::size_t c = 0; c < a.eta.size(); ++c) {
    dot += a.eta[c] * b.eta[c];
    na += a.eta[c] * a.eta[c];
    nb += b.eta[c] * b.eta[c];
  }
  return dot / std::sqrt(std::max(na * nb, real(1e-30)));
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  real scale = 1.0;
  if (const char* s = std::getenv("TSG_BENCH_SCALE")) {
    scale = std::atof(s);
  }
  // The preset's 200 m shelf (its shallow cells set dt_min) keeps the
  // single-core run in minutes while preserving the bay/shelf depth
  // contrast.  Coarsen to h = 4 km (uniform core 2h around the fault
  // segments) and crop the domain to +-16 km x +-32 km, the segments
  // ending 6 km short of the y sides.
  ScenarioSpec spec =
      loadScenarioSpec(ConfigFile::load(TSG_PRESET_DIR "/palu.cfg"));
  AxisSegmentSpec& xs = spec.mesh.x.front();
  xs.lo = -16000;
  xs.uniformLo = -10000;
  xs.uniformHi = 10000;
  xs.hi = 16000;
  xs.h = 4000;
  AxisSegmentSpec& ys = spec.mesh.y.front();
  ys.lo = -32000;
  ys.uniformLo = -32000;
  ys.hi = 32000;
  ys.h = 4000;
  spec.mesh.z.front().uniformLo = -22000;
  spec.mesh.z.front().h = 4000;
  spec.fault.segments[0].yMax = 26000;
  spec.fault.segments[1].yMin = -26000;
  spec.receivers.clear();
  const std::vector<real> snapshotTimes = {6.0 * scale, 12.0 * scale,
                                           20.0 * scale};
  const real tEnd = snapshotTimes.back();
  const int degree = 2;

  const ScenarioBundle s = buildScenario(spec, degree);
  std::printf("Palu mesh: %d elements\n", s.mesh.numElements());

  const auto simPtr = makeSimulation(s);
  Simulation& sim = *simPtr;
  std::printf("dt_min = %.3e s, %d LTS clusters\n", sim.dtMin(),
              sim.clusters().numClusters);

  // Receiver in the bay (700 m deep) for the acoustic-content check
  // (Fig. 1a).
  const int bayReceiver =
      sim.addReceiver("bay", {0.0, -12000.0, -0.45 * 700.0});

  // Uplift recorder for the one-way linked branch (the coupled model's
  // seafloor IS the source the linked model sees, cf. Sec. 6.2: both use
  // the same earthquake).
  const real gxMin = xs.lo, gxMax = xs.hi;
  const real gyMin = ys.lo, gyMax = ys.hi;
  const int gridN = 64;
  SeafloorUpliftRecorder recorder(gridN, gridN, gxMin, gyMin,
                                  (gxMax - gxMin) / gridN,
                                  (gyMax - gyMin) / gridN);
  recorder.attachTo(sim);

  std::vector<SurfaceGrid> coupledSnapshots;
  std::size_t nextSnap = 0;
  sim.onMacroStep([&](real t) {
    if (nextSnap < snapshotTimes.size() && t >= snapshotTimes[nextSnap]) {
      SurfaceGrid grid(gxMin, gxMax, gyMin, gyMax, 48);
      grid.bin(sim.seaSurface());
      coupledSnapshots.push_back(grid);
      std::printf("  coupled snapshot at t = %.2f s: max|eta| = %.3f m\n", t,
                  grid.maxAbs());
      ++nextSnap;
    }
  });

  std::printf("running fully coupled Palu model to t = %.1f s...\n", tEnd);
  sim.advanceTo(tEnd);

  // ---- Fig. 1 claims -----------------------------------------------------
  // Supershear: earliest/latest rupture times along strike on segment 1.
  const FaultSolver* fault = sim.fault();
  real y0 = 1e30, y1 = -1e30, t0 = 0, t1 = 0;
  real maxSlip = 0;
  for (int i = 0; i < fault->numFaces(); ++i) {
    const auto& ff = fault->faceAt(i);
    for (std::size_t p = 0; p < ff.state.size(); ++p) {
      maxSlip = std::max(maxSlip, ff.state[p].slip);
      if (ff.state[p].ruptureTime < 0) {
        continue;
      }
      if (ff.qpY[p] < y0) {
        y0 = ff.qpY[p];
        t0 = ff.state[p].ruptureTime;
      }
      if (ff.qpY[p] > y1) {
        y1 = ff.qpY[p];
        t1 = ff.state[p].ruptureTime;
      }
    }
  }
  const real ruptureSpeed =
      (y1 > y0 && std::abs(t0 - t1) > 1e-6) ? (y1 - y0) / std::abs(t0 - t1) : 0;
  const real cs = s.materials[0].sWaveSpeed();

  // Acoustic content at the bay receiver (periods << tsunami periods).
  const Receiver& rec = sim.receiver(bayReceiver);
  const real domFreq = rec.dominantFrequency(kVz);

  Table fig1({"quantity", "value", "paper_expectation"});
  fig1.row() << "rupture_speed_m_s" << ruptureSpeed << "supershear (> cs)";
  fig1.row() << "shear_speed_m_s" << cs << "-";
  fig1.row() << "rupture_speed_over_cs" << ruptureSpeed / cs << "> 1";
  fig1.row() << "max_fault_slip_m" << maxSlip << "O(1) m";
  fig1.row() << "bay_vz_dominant_freq_Hz" << domFreq
             << ">> tsunami band (acoustic modes)";
  fig1.print("Fig. 1: rupture dynamics and ocean response");
  fig1.writeCsv("palu_fig1_metrics.csv");

  // ---- one-way linked branch (Fig. 5 lower row) --------------------------
  SweConfig swc;
  swc.nx = 96;
  swc.ny = 96;
  swc.x0 = gxMin;
  swc.y0 = gyMin;
  swc.dx = (gxMax - gxMin) / swc.nx;
  swc.dy = (gyMax - gyMin) / swc.ny;
  SweSolver swe(swc);
  const BathymetryField bathy(spec.bathymetry.baseDepth,
                              spec.bathymetry.combine,
                              spec.bathymetry.features);
  swe.setBathymetry([&bathy](real x, real y) { return bathy.z(x, y); });
  swe.initializeLakeAtRest(0.0);
  swe.setBedMotion(recorder.bedMotion());
  std::vector<SurfaceGrid> linkedSnapshots;
  for (real t : snapshotTimes) {
    swe.advanceTo(t);
    SurfaceGrid grid(gxMin, gxMax, gyMin, gyMax, 48);
    std::vector<SurfaceSample> samples;
    for (int j = 0; j < swc.ny; ++j) {
      for (int i = 0; i < swc.nx; ++i) {
        if (swe.isWet(i, j)) {
          samples.push_back({swe.cellX(i), swe.cellY(j),
                             swe.surface(i, j)});
        }
      }
    }
    grid.bin(samples);
    linkedSnapshots.push_back(grid);
  }

  // ---- Fig. 5 comparison -------------------------------------------------
  Table fig5({"t_s", "max_eta_coupled_m", "max_eta_linked_m", "correlation",
              "sharpness_coupled", "sharpness_linked"});
  for (std::size_t k = 0; k < coupledSnapshots.size() &&
                          k < linkedSnapshots.size();
       ++k) {
    const auto& c = coupledSnapshots[k];
    const auto& l = linkedSnapshots[k];
    fig5.row() << snapshotTimes[k] << c.maxAbs() << l.maxAbs()
               << correlation(c, l) << c.sharpness() << l.sharpness();
    c.writeCsv("palu_coupled_t" + std::to_string(static_cast<int>(
                                      snapshotTimes[k])) + ".csv");
    l.writeCsv("palu_linked_t" + std::to_string(static_cast<int>(
                                     snapshotTimes[k])) + ".csv");
  }
  fig5.print("Fig. 5: coupled vs one-way linked sea surface");
  fig5.writeCsv("palu_fig5_metrics.csv");
  std::printf("\nPaper expectations: similar wave heights & patterns; the\n"
              "linked model's wavefronts are sharper (higher sharpness\n"
              "metric); the coupled field is smoother and additionally\n"
              "carries acoustic waves.\n");
  return 0;
}
