// tsg_bench_trace: the benchmark's out-of-process tracer.  It times calls
// into the library's public functions from outside; nothing in src/ is
// instrumented for it.  perfbench/run.py drives three modes, each of which
// writes one JSON object to <out.json>:
//
//   count <run.cfg> <out.json>
//       Resolve the scenario, build its assets, and replay the snapshot
//       loop's macro-cycle arithmetic: the element updates and macro
//       cycles the run will execute, plus collectHostMetadata().
//   run <run.cfg> <perf.json> <log.jsonl> <out.json>
//       runPipeline() with a timing asset provider and progress hook and
//       the perf report enabled (tsg-perf-1 phases and spans).  Records
//       the entry, provider call, assets-built and exit times, every
//       macro-cycle timestamp, and the logger epoch, so the run_start and
//       snapshot events of <log.jsonl> land on the same clock.
//   probe <run.cfg> <out.json>
//       The time of the batched relayout (the first batchedAssets() call
//       on fresh assets), the median time of a computeEnergy() call on the
//       workload's mesh, the time of a checkpoint restore into a fresh
//       simulation (workloads that write checkpoints), and a stage
//       microbench of the batched kernels and the gravity flux at the
//       workload's degree and auto batch size.
//
// All times are steady_clock seconds relative to the mode's start.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flops.hpp"
#include "common/json.hpp"
#include "gravity/gravity_surface.hpp"
#include "kernels/batched_kernels.hpp"
#include "perf/host_metadata.hpp"
#include "perf/perf_monitor.hpp"
#include "runner/run_pipeline.hpp"
#include "scenario/scenario.hpp"
#include "solver/diagnostics.hpp"
#include "solver/simulation_assets.hpp"
#include "telemetry/logging.hpp"

using namespace tsg;

namespace {

double now() { return PerfMonitor::clockSeconds(); }

/// Flat JSON object writer: `"key": value` pairs in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jsonNumber(v));
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + jsonNumber(v[i]);
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",\n  ") + jsonQuote(key) + ": " + json;
    return *this;
  }
  std::string text() const { return "{\n  " + body_ + "\n}\n"; }

 private:
  std::string body_;
};

void writeText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
      std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// The scenario exactly as runPipeline resolves it for this config.
ScenarioBundle loadBundle(const std::string& cfgPath, RunOptions& o) {
  const ConfigFile cfg = ConfigFile::load(cfgPath);
  o = readRunOptions(cfg);
  ScenarioBundle bundle = resolveScenario(o, cfg);
  applySolverOptions(bundle.solver, o);
  return bundle;
}

std::shared_ptr<const SimulationAssets> buildAssets(
    const ScenarioBundle& bundle) {
  return std::make_shared<const SimulationAssets>(
      bundle.mesh, bundle.materials,
      AssetConfig::fromSolverConfig(bundle.solver));
}

int countMode(const std::string& cfgPath, const std::string& outPath) {
  RunOptions o;
  const ScenarioBundle bundle = loadBundle(cfgPath, o);
  const auto assets = buildAssets(bundle);
  const ClusterLayout& clusters = assets->clusters;
  // Simulation::advanceTo over the snapshot targets of runPipeline.
  std::int64_t tick = 0, cycles = 0;
  real time = 0;
  for (int s = 1; s <= o.snapshots; ++s) {
    const real tEnd = o.endTime * s / o.snapshots;
    const real eps = 1e-12 * std::max(real(1), tEnd);
    while (time < tEnd - eps) {
      tick += clusters.ticksPerMacro();
      ++cycles;
      time = clusters.dtMin * static_cast<real>(tick);
    }
  }
  std::string host = "{";
  for (const auto& [key, value] : collectHostMetadata()) {
    host += (host.size() > 1 ? ", " : "") + jsonQuote(key) + ": " +
            jsonQuote(value);
  }
  JsonObject out;
  out.num("macro_cycles", static_cast<double>(cycles))
      .num("element_updates",
           static_cast<double>(cycles * clusters.updatesPerMacroCycleLts()))
      .num("macro_dt", clusters.dtMin * static_cast<real>(
                                            clusters.ticksPerMacro()))
      .num("elements", assets->mesh.numElements())
      .raw("host", host + "}");
  writeText(outPath, out.text());
  return 0;
}

int runMode(const std::string& cfgPath, const std::string& perfPath,
            const std::string& logPath, const std::string& outPath) {
  std::string log;
  logger().setJson(true);
  logger().setCapture(&log);
  const double t0 = now();
  const double logEpoch = t0 - logger().elapsedSeconds();

  const ConfigFile cfg = ConfigFile::load(cfgPath);
  RunOptions o = readRunOptions(cfg);
  o.perfReportPath = perfPath;

  double tProvider = 0, tBuilt = 0;
  std::vector<double> progress;
  RunHooks hooks;
  hooks.assetProvider = [&](const ScenarioBundle& bundle) {
    tProvider = now();
    auto assets = buildAssets(bundle);
    tBuilt = now();
    // The relayout is left to the first step, as in an untraced run:
    // building it here, before the run's state, made the degree-4 kernels
    // measurably faster and the trace unrepresentative.
    return assets;
  };
  hooks.onProgress = [&](double, double) { progress.push_back(now() - t0); };

  const double tEntry = now();
  const RunResult result = runPipeline(cfgPath, cfg, o, hooks);
  const double tExit = now();
  logger().setCapture(nullptr);
  writeText(logPath, log);

  JsonObject out;
  out.num("entry", tEntry - t0)
      .num("provider_call", tProvider - t0)
      .num("assets_built", tBuilt - t0)
      .num("exit", tExit - t0)
      .num("log_epoch", logEpoch - t0)
      .list("progress", progress)
      .num("element_updates", static_cast<double>(result.elementUpdates));
  writeText(outPath, out.text());
  return 0;
}

/// Deterministic values in [-1, 1] (the kernels' cost does not depend on
/// them, but denormals and NaNs would).
std::vector<real> filled(std::size_t n, std::uint64_t seed) {
  std::vector<real> v(n);
  for (auto& x : v) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<real>(seed >> 11) * (2.0 / 9007199254740992.0) - 1.0;
  }
  return v;
}

struct StageTiming {
  double seconds = 0;  // per call, median over rounds
  double flops = 0;    // per call
};

/// Time `call` in rounds of ~20 ms for about `budget` seconds; the median
/// round gives the per-call time, the FLOP counter the per-call work.
StageTiming timeStage(const std::function<void()>& call, double budget) {
  call();  // warm caches and lazily built tables
  std::uint64_t calls = 0;
  const std::uint64_t flops0 = threadFlops();
  const double tProbe = now();
  while (now() - tProbe < 0.02) {
    call();
    ++calls;
  }
  const std::uint64_t perRound = std::max<std::uint64_t>(calls, 1);
  const double flopsPerCall =
      static_cast<double>(threadFlops() - flops0) / static_cast<double>(calls);
  std::vector<double> rounds;
  const double tStart = now();
  while (rounds.size() < 5 || now() - tStart < budget) {
    const double r0 = now();
    for (std::uint64_t i = 0; i < perRound; ++i) {
      call();
    }
    rounds.push_back((now() - r0) / static_cast<double>(perRound));
  }
  std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                   rounds.end());
  return {rounds[rounds.size() / 2], flopsPerCall};
}

/// Single-thread microbench of the corrector split at the workload's
/// degree and auto batch size, on the workload's own operand tensors.
void stageMicrobench(const SimulationAssets& assets, int degree,
                     JsonObject& out) {
  const ReferenceMatrices& rm = referenceMatrices(degree);
  const auto ba = assets.batchedAssets(0);
  const int width = ba->layout.batchSize();
  const int ld = kNumQuantities * width;
  const std::size_t nbq = static_cast<std::size_t>(rm.nb) * kNumQuantities;
  const std::size_t tile = static_cast<std::size_t>(rm.nb) * ld;
  const std::size_t star = 3 * kNumQuantities * kNumQuantities;
  const std::size_t mat = kNumQuantities * kNumQuantities;
  constexpr double kBudget = 0.15;

  const auto report = [&](const char* name, const StageTiming& t,
                          double bytes) {
    const std::string key = std::string("stage.") + name;
    out.num(key + ".seconds", t.seconds)
        .num(key + ".flops", t.flops)
        .num(key + ".bytes_computed", bytes);
  };

  // Predictor: level 0 in, levels 1..degree out.
  std::vector<real> stack = filled((degree + 1) * tile, 1);
  std::vector<real> scratch = filled(tile, 2);
  report("predictor",
         timeStage(
             [&] {
               batchedAderPredictor(rm, ba->negStarTB.data(), stack.data(),
                                    scratch.data(), width, ld);
             },
             kBudget),
         8.0 * ((degree + 1) * tile + star * width + 3 * rm.nb * rm.nb));

  // Volume: dofs += sum_c kXi[c] tInt starT[c].
  std::vector<real> tInt = filled(tile, 3);
  std::vector<real> dofs = filled(tile, 4);
  report("volume",
         timeStage(
             [&] {
               batchedVolumeKernel(rm, ba->starTB.data(), tInt.data(),
                                   dofs.data(), scratch.data(), width, ld);
             },
             kBudget),
         8.0 * (3 * tile + star * width + 3 * rm.nb * rm.nb));

  // Local flux stage of face 0, every lane a regular face.
  std::vector<const real*> negFlux(width);
  for (int lane = 0; lane < width; ++lane) {
    negFlux[lane] = ba->negFluxMinusTB.data() + lane * 4 * mat;
  }
  report("local_flux",
         timeStage(
             [&] {
               batchedLocalFluxStage(rm.nb, width, ld, tInt.data(),
                                     negFlux.data(), scratch.data());
             },
             kBudget),
         8.0 * (3 * tile + mat * width));

  // Neighbour flux stage of face 0, every lane a same-cluster neighbour.
  std::vector<real> sources = filled(width * nbq, 5);
  std::vector<NeighborFluxLane> lanes(width);
  for (int lane = 0; lane < width; ++lane) {
    lanes[lane].src = sources.data() + lane * nbq;
    lanes[lane].negFluxPlusT = ba->negFluxPlusTB.data() + lane * 4 * mat;
    lanes[lane].fluxNeighbor = rm.fluxNeighbor[0][0][0].data();
  }
  std::vector<real> laneScratch(nbq);
  report("neighbor_flux",
         timeStage(
             [&] {
               batchedNeighborFluxStage(rm.nb, width, ld, lanes.data(),
                                        laneScratch.data(), dofs.data());
             },
             kBudget),
         8.0 * width * (3.0 * nbq + mat + rm.nb * rm.nb));

  // Gravity free surface: eta RK7 + flux of one ocean-top face.
  if (!assets.gravityFaces.empty()) {
    GravityBoundary gravity(degree, assets.cfg.gravity);
    const GravityFaceRef g = assets.gravityFaces.front();
    gravity.addFace(assets.mesh, g.elem, g.face, assets.elemMaterial[g.elem]);
    const std::vector<real> faceStack = filled((degree + 1) * nbq, 6);
    std::vector<real> fluxQp(static_cast<std::size_t>(rm.nq) *
                             kNumQuantities);
    std::vector<real> gScratch((degree + 1) * fluxQp.size());
    const StageTiming t = timeStage(
        [&] {
          gravity.computeFlux(0, rm, faceStack.data(), 1e-4, fluxQp.data(),
                              gScratch.data());
        },
        kBudget);
    out.num("gravity.flux_seconds", t.seconds);
  }
}

int probeMode(const std::string& cfgPath, const std::string& outPath) {
  RunOptions o;
  const ScenarioBundle bundle = loadBundle(cfgPath, o);
  const auto assets = buildAssets(bundle);
  JsonObject out;
  const double tRelayout = now();
  assets->batchedAssets(bundle.solver.batchSize);
  out.num("relayout_seconds", now() - tRelayout);
  std::unique_ptr<Simulation> sim = makeSimulation(bundle, assets);
  if (o.checkpointInterval > 0) {
    // Restore a checkpoint of this very mesh into a fresh simulation.  The
    // run's own files are not used: computeAssetHash covers FaceInfo's
    // padding bytes, so another process can reject them as mismatched.
    const std::string path = o.prefix + "_probe.tsgck";
    sim->saveCheckpoint(path);
    sim = makeSimulation(bundle, assets);
    const double t0 = now();
    sim->restoreCheckpoint(path);
    out.num("restore_seconds", now() - t0);
  }
  // Median of three calls: one serial call varies by +-20% on a busy host.
  std::vector<double> calls;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now();
    computeEnergy(*sim);
    calls.push_back(now() - t0);
  }
  std::sort(calls.begin(), calls.end());
  out.num("energy_seconds", calls[1]);
  stageMicrobench(*assets, o.degree, out);
  writeText(outPath, out.text());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "count") {
      return countMode(args[1], args[2]);
    }
    if (args.size() == 5 && args[0] == "run") {
      return runMode(args[1], args[2], args[3], args[4]);
    }
    if (args.size() == 3 && args[0] == "probe") {
      return probeMode(args[1], args[2]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsg_bench_trace: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: tsg_bench_trace count <run.cfg> <out.json>\n"
               "       tsg_bench_trace run <run.cfg> <perf.json> <log.jsonl> "
               "<out.json>\n"
               "       tsg_bench_trace probe <run.cfg> <out.json>\n");
  return 2;
}
