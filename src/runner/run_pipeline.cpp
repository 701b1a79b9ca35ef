#include "runner/run_pipeline.hpp"

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <deque>

#include "common/errors.hpp"
#include "io/atomic_file.hpp"
#include "io/vtk_writer.hpp"
#include "perf/model_validation.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation_assets.hpp"
#include "solver/diagnostics.hpp"
#include "solver/health_monitor.hpp"
#include "telemetry/logging.hpp"
#include "telemetry/run_telemetry.hpp"

namespace tsg {

RunOptions readRunOptions(const ConfigFile& cfg) {
  RunOptions o;
  const bool scenarioKeySet = cfg.has("scenario");
  const std::string scenario = cfg.getString("scenario", "");
  o.preset = cfg.getString("preset", "");
  o.inlineScenario = cfg.hasSections();
  o.degree = cfg.getInt("degree", 2);
  o.endTime = cfg.getNumber("end_time", 2.0);
  o.prefix = cfg.getString("output_prefix", "run");
  o.vtk = cfg.getBool("vtk_output", true);
  o.lts = cfg.getBool("lts", true);
  o.deterministic = cfg.getBool("deterministic", false);
  o.snapshots = cfg.getInt("snapshots", 4);
  o.checkpointInterval = cfg.getNumber("checkpoint_interval", 0.0);
  o.keepCheckpoints = cfg.getInt("keep_checkpoints", 3);
  o.resume = cfg.getString("resume", "");
  o.healthCheck = cfg.getBool("health_check", true);
  o.maxEnergyGrowth = cfg.getNumber("max_energy_growth", 100.0);
  o.metricsInterval = cfg.getNumber("metrics_interval", 0.0);
  o.cflFraction = cfg.getNumber("cfl_fraction", 0.0);
  const std::string kernelPath = cfg.getString("kernel_path", "batched");
  if (const auto parsed = parseKernelPath(kernelPath)) {
    o.kernelPath = *parsed;
  } else {
    throw ConfigError("kernel_path must be " +
                      std::string(kernelPathChoices()) + " (got '" +
                      kernelPath + "')");
  }
  o.batchSize = cfg.getInt("batch_size", 0);
  if (o.batchSize < 0) {
    throw ConfigError("batch_size must be >= 0 (got " +
                      std::to_string(o.batchSize) + ")");
  }
  o.threads = cfg.getInt("threads", 0);
  if (o.threads < 0) {
    throw ConfigError("threads must be >= 0 (got " +
                      std::to_string(o.threads) + ")");
  }
  o.pinThreads = cfg.getBool("pin_threads", false);
  for (const auto& key : cfg.unusedKeys()) {
    logWarn("config_unknown_key",
            "unknown configuration key '" + key + "'",
            {logStr("key", key)});
  }

  if (scenarioKeySet) {
    throw ConfigError(
        "'scenario = " + scenario +
        "' is no longer supported: the compiled-in scenario classes are "
        "test fixtures now.  Use preset = examples/presets/" +
        (scenario.empty() ? std::string("<name>") : scenario) +
        ".cfg or declare inline [section] blocks instead");
  }
  if (!o.preset.empty() && o.inlineScenario) {
    throw ConfigError(
        "'preset' is set but the run config also declares inline scenario "
        "sections; pick one scenario source");
  }
  if (o.preset.empty() && !o.inlineScenario) {
    throw ConfigError(
        "no scenario source: set preset = <file> or declare inline "
        "[section] blocks (see --example-config)");
  }
  if (!(o.endTime > 0)) {
    throw ConfigError("end_time must be > 0 (got " +
                      std::to_string(o.endTime) + ")");
  }
  if (o.degree < 1 || o.degree > kMaxDegree) {
    throw ConfigError("degree must be in 1.." + std::to_string(kMaxDegree) +
                      " (got " + std::to_string(o.degree) + ")");
  }
  if (o.snapshots < 1) {
    throw ConfigError("snapshots must be >= 1 (got " +
                      std::to_string(o.snapshots) + ")");
  }
  if (o.checkpointInterval < 0) {
    throw ConfigError("checkpoint_interval must be >= 0 (got " +
                      std::to_string(o.checkpointInterval) + ")");
  }
  if (o.keepCheckpoints < 1) {
    throw ConfigError("keep_checkpoints must be >= 1 (got " +
                      std::to_string(o.keepCheckpoints) + ")");
  }
  if (!(o.maxEnergyGrowth > 1)) {
    throw ConfigError("max_energy_growth must be > 1");
  }
  if (o.metricsInterval < 0) {
    throw ConfigError("metrics_interval must be >= 0 (got " +
                      std::to_string(o.metricsInterval) + ")");
  }
  if (o.cflFraction < 0) {
    throw ConfigError("cfl_fraction must be > 0 when set");
  }
  return o;
}

void applySolverOptions(SolverConfig& sc, const RunOptions& o) {
  sc.ltsRate = o.lts ? 2 : 1;
  sc.deterministic = o.deterministic;
  sc.kernelPath = o.kernelPath;
  sc.batchSize = o.batchSize;
  sc.pinThreads = o.pinThreads;
  if (o.cflFraction > 0) {
    sc.cflFraction = o.cflFraction;
  }
}

ScenarioBundle resolveScenario(const RunOptions& o, const ConfigFile& cfg) {
  if (!o.preset.empty()) {
    return loadPresetScenario(o.preset, o.degree);
  }
  return buildScenario(loadScenarioSpec(cfg), o.degree);
}

std::uint64_t hashFileBytes(const std::string& path) {
  const std::string bytes = readFileBytes(path);
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

/// Periodic checkpointing at macro-cycle boundaries with rotation: writes
/// <prefix>_ckpt_<tick>.tsgck once per `interval` of simulated time and
/// keeps the newest `keep` files.
class CheckpointRotation {
 public:
  CheckpointRotation(std::string prefix, real interval, int keep)
      : prefix_(std::move(prefix)), interval_(interval), keep_(keep) {}

  /// Report completed checkpoints to the status heartbeat (optional).
  void setTelemetry(RunTelemetry* telemetry) { telemetry_ = telemetry; }

  void attach(Simulation& sim) {
    nextTime_ = nextMultipleAfter(sim.time());
    sim.onMacroStep([this, &sim](real t) {
      if (t < nextTime_) {
        return;
      }
      const std::string path =
          prefix_ + "_ckpt_" + std::to_string(sim.tick()) + ".tsgck";
      sim.saveCheckpoint(path);
      char msg[64];
      std::snprintf(msg, sizeof msg, " (t = %.6g s)", t);
      logInfo("checkpoint_saved", "checkpoint: wrote " + path + msg,
              {logStr("path", path), logNum("t", t),
               logInt("tick", static_cast<long long>(sim.tick()))});
      if (telemetry_) {
        telemetry_->noteCheckpoint(path, t);
      }
      written_.push_back(path);
      while (static_cast<int>(written_.size()) > keep_) {
        std::remove(written_.front().c_str());
        written_.pop_front();
      }
      nextTime_ = nextMultipleAfter(t);
    });
  }

 private:
  real nextMultipleAfter(real t) const {
    // Align to absolute multiples of the interval so that a resumed run
    // checkpoints at the same simulated times as an uninterrupted one.
    return (std::floor(t / interval_) + 1) * interval_;
  }

  std::string prefix_;
  real interval_;
  int keep_;
  real nextTime_ = 0;
  std::deque<std::string> written_;
  RunTelemetry* telemetry_ = nullptr;
};

ReceiverSummary summarizeReceiver(const Simulation& sim, const Receiver& rec,
                                  real gravity) {
  ReceiverSummary s;
  s.name = rec.name;
  s.samples = rec.samples.size();
  const Material& mat = sim.materialOf(rec.elem);
  s.acoustic = mat.isAcoustic();
  for (const auto& q : rec.samples) {
    const double p = -(q[kSxx] + q[kSyy] + q[kSzz]) / 3.0;
    const double v = std::sqrt(q[kVx] * q[kVx] + q[kVy] * q[kVy] +
                               q[kVz] * q[kVz]);
    s.maxAbsPressure = std::max(s.maxAbsPressure, std::abs(p));
    s.peakVelocity = std::max(s.peakVelocity, v);
  }
  if (s.acoustic && gravity > 0 && mat.rho > 0) {
    s.maxEta = s.maxAbsPressure / (mat.rho * gravity);
  }
  if (s.maxAbsPressure > 0) {
    const double threshold = 0.05 * s.maxAbsPressure;
    for (std::size_t i = 0; i < rec.samples.size(); ++i) {
      const auto& q = rec.samples[i];
      const double p = -(q[kSxx] + q[kSyy] + q[kSzz]) / 3.0;
      if (std::abs(p) >= threshold) {
        s.arrivalTime = rec.times[i];
        break;
      }
    }
  }
  return s;
}

}  // namespace

RunResult runPipeline(const std::string& configPath, const ConfigFile& cfg,
                      const RunOptions& o, const RunHooks& hooks) {
  if (o.threads > 0) {
    // Before the simulation is built: per-thread scratch and the
    // scheduler's ThreadPlan follow the ambient count at first use.
    // (omp_set_num_threads sets the CALLING thread's ICV, so concurrent
    // ensemble workers do not clobber each other.)
    omp_set_num_threads(o.threads);
  }
  ScenarioBundle bundle = resolveScenario(o, cfg);
  const std::string scenarioName = bundle.name;
  applySolverOptions(bundle.solver, o);

  std::shared_ptr<const SimulationAssets> sharedAssets;
  if (hooks.assetProvider) {
    sharedAssets = hooks.assetProvider(bundle);
  }
  std::unique_ptr<Simulation> sim =
      sharedAssets ? makeSimulation(bundle, std::move(sharedAssets))
                   : makeSimulation(bundle);
  const std::uint64_t scenarioHash = hashFileBytes(configPath);
  // The scenario hash (raw config-file bytes) is strictly enforced only
  // for the ensemble's auto-resume, where the member config that wrote
  // the checkpoint and the one resuming are the same rendered file.  A
  // manual `resume =` run necessarily edits the config (the resume key
  // itself, end_time, output_prefix), so there the hash is stamped
  // after the restore: recorded as the new provenance, not validated.
  // Structural safety is covered either way by the config/asset hashes.
  if (hooks.resumeOverride.empty()) {
    sim->setScenarioHash(0);
  } else {
    sim->setScenarioHash(scenarioHash);
  }

  if (!o.perfReportPath.empty() || !o.tracePath.empty() ||
      !o.modelCheckPath.empty()) {
    sim->enablePerfMonitor(!o.tracePath.empty());
  }
  // The drift report normalises per macro cycle; count them directly so
  // a resumed run only counts the cycles this monitor actually measured.
  std::uint64_t macroCycles = 0;
  if (sim->perfMonitor()) {
    sim->onMacroStep([&macroCycles](real) { ++macroCycles; });
  }
  const std::string resume =
      hooks.resumeOverride.empty() ? o.resume : hooks.resumeOverride;
  if (!resume.empty()) {
    sim->restoreCheckpoint(resume);
    char at[64];
    std::snprintf(at, sizeof at, " at t = %.6g s (tick %lld)", sim->time(),
                  static_cast<long long>(sim->tick()));
    logInfo("checkpoint_restored", "resumed from " + resume + at,
            {logStr("path", resume), logNum("t", sim->time()),
             logInt("tick", static_cast<long long>(sim->tick()))});
  }
  // From here on (fresh runs and both resume flavours) checkpoints carry
  // THIS run's config bytes as provenance.
  sim->setScenarioHash(scenarioHash);

  // Telemetry registers its macro-step callback first, so the trajectory
  // of a diverging run -- including the fatal cycle -- is flushed before
  // the health monitor throws.
  std::unique_ptr<RunTelemetry> telemetry;
  if (o.metricsInterval > 0 || !o.statusPath.empty()) {
    TelemetryOptions to;
    to.metricsInterval = o.metricsInterval;
    if (o.metricsInterval > 0) {
      to.metricsPath = o.prefix + "_metrics.jsonl";
    }
    to.statusPath = o.statusPath;
    to.endTime = o.endTime;
    to.scenario = scenarioName;
    telemetry = std::make_unique<RunTelemetry>(to);
    telemetry->attach(*sim);
  }
  if (hooks.onProgress) {
    const double endTime = o.endTime;
    const auto& cb = hooks.onProgress;
    sim->onMacroStep([cb, endTime](real t) { cb(t, endTime); });
  }

  // Health checks run before the checkpoint callback (registration
  // order), so a diverged state is never checkpointed.
  HealthMonitor monitor{[&] {
    HealthMonitorConfig hc;
    hc.maxEnergyGrowthFactor = o.maxEnergyGrowth;
    hc.outputPrefix = o.prefix;
    return hc;
  }()};
  if (telemetry) {
    monitor.setMetricsProvider(
        [t = telemetry.get()] { return t->latestSampleJson(); });
  }
  if (o.healthCheck) {
    monitor.attach(*sim);
  }
  CheckpointRotation rotation(o.prefix, o.checkpointInterval,
                              o.keepCheckpoints);
  rotation.setTelemetry(telemetry.get());
  if (o.checkpointInterval > 0) {
    rotation.attach(*sim);
  }

  {
    char msg[192];
    std::snprintf(msg, sizeof msg,
                  "scenario %s: %d elements, order %d, dt_min %.3e s, "
                  "%d LTS clusters",
                  scenarioName.c_str(), sim->mesh().numElements(), o.degree,
                  sim->dtMin(), sim->clusters().numClusters);
    logInfo("run_start", msg,
            {logStr("scenario", scenarioName),
             logInt("elements", sim->mesh().numElements()),
             logInt("degree", o.degree), logNum("dt_min", sim->dtMin()),
             logInt("clusters", sim->clusters().numClusters),
             logStr("backend", sim->backend().name())});
  }
  for (int s = 1; s <= o.snapshots; ++s) {
    sim->advanceTo(o.endTime * s / o.snapshots);
    const EnergyBudget e = computeEnergy(*sim);
    real maxEta = 0;
    for (const auto& sample : sim->seaSurface()) {
      maxEta = std::max(maxEta, std::abs(sample.eta));
    }
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "t = %8.3f s  E_kin %.4g  E_el %.4g  E_ac %.4g  "
                  "max|eta| %.4g m",
                  sim->time(), e.kinetic, e.strainElastic, e.strainAcoustic,
                  maxEta);
    logInfo("snapshot", msg,
            {logNum("t", sim->time()), logNum("e_kinetic", e.kinetic),
             logNum("e_elastic", e.strainElastic),
             logNum("e_acoustic", e.strainAcoustic),
             logNum("max_abs_eta", maxEta)});
  }

  {
    PerfSpan span(sim->perfMonitor(), "output_receiver_csv");
    for (int r = 0; r < sim->numReceivers(); ++r) {
      const Receiver& rec = sim->receiver(r);
      rec.writeCsv(o.prefix + "_receiver_" + rec.name + ".csv");
    }
  }
  if (o.vtk) {
    PerfSpan span(sim->perfMonitor(), "output_vtk");
    writeVtkWavefield(o.prefix + "_wavefield.vtk", *sim);
    writeVtkSurface(o.prefix + "_surface.vtk", sim->seaSurface());
    logInfo("output_vtk",
            "wrote " + o.prefix + "_wavefield.vtk, " + o.prefix +
                "_surface.vtk");
  }
  if (telemetry) {
    telemetry->finish(*sim);
  }
  if (const PerfMonitor* perf = sim->perfMonitor()) {
    if (!o.perfReportPath.empty()) {
      writePerfReport(o.perfReportPath, *perf,
                      sim->perfReportMeta(scenarioName));
      char note[64];
      std::snprintf(note, sizeof note, " (kernel time %.3f s)",
                    perf->totalSeconds());
      logInfo("perf_report", "wrote " + o.perfReportPath + note,
              {logStr("path", o.perfReportPath),
               logNum("kernel_seconds", perf->totalSeconds())});
    }
    if (!o.tracePath.empty()) {
      perf->writeChromeTrace(o.tracePath);
      logInfo("trace", "wrote " + o.tracePath,
              {logStr("path", o.tracePath)});
    }
    if (!o.modelCheckPath.empty()) {
      const PerfReportMeta pm = sim->perfReportMeta(scenarioName);
      const HostProbe host = probeHost(pm.threads);
      ModelCheckMeta mm;
      mm.scenario = scenarioName;
      mm.backend = pm.backend;
      mm.threads = pm.threads;
      mm.macroCycles = macroCycles;
      const SimulationAssets& assets = *sim->assets();
      writeModelCheckReport(o.modelCheckPath, assets.mesh, assets.clusters,
                            assets.rm, *perf, host, mm);
      logInfo("model_check", "wrote " + o.modelCheckPath,
              {logStr("path", o.modelCheckPath),
               logNum("peak_gflops", host.peakGflops),
               logNum("stream_gbytes_per_s", host.streamGbytesPerS)});
    }
  }

  RunResult result;
  result.scenarioName = scenarioName;
  result.simulatedTime = sim->time();
  result.elementUpdates = sim->elementUpdates();
  result.configHash = sim->configHash();
  result.assetHash = sim->assetHash();
  result.scenarioHash = sim->scenarioHash();
  if (const PerfMonitor* perf = sim->perfMonitor()) {
    for (int p = 0; p < kNumPhases; ++p) {
      const Phase phase = static_cast<Phase>(p);
      const PhaseStats s = perf->total(phase);
      RunPhasePerf rp;
      rp.phase = phaseName(phase);
      rp.busySeconds = s.seconds;
      rp.wallSeconds = perf->wallSeconds(phase);
      rp.gflops = s.seconds > 0 ? s.flops / s.seconds / 1e9 : 0.0;
      result.perfPhases.push_back(rp);
    }
  }
  const real gravity = sim->config().gravity;
  for (int r = 0; r < sim->numReceivers(); ++r) {
    result.receivers.push_back(
        summarizeReceiver(*sim, sim->receiver(r), gravity));
  }
  return result;
}

}  // namespace tsg
