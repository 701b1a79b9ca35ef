#include "telemetry/run_telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/json.hpp"
#include "io/atomic_file.hpp"
#include "kernels/reference_matrices.hpp"
#include "solver/diagnostics.hpp"
#include "solver/time_clusters.hpp"
#include "telemetry/metrics_registry.hpp"

namespace tsg {

namespace {

double wallSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Header record of the "tsg-metrics-1" stream: run metadata every
/// consumer needs to interpret the samples.
std::string metricsHeaderJson(const Simulation& sim,
                              const TelemetryOptions& o) {
  const ClusterLayout& cl = sim.clusters();
  std::string out = "{\"schema\":\"tsg-metrics-1\"";
  out += ",\"scenario\":" + jsonQuote(o.scenario);
  out += ",\"degree\":" + std::to_string(sim.config().degree);
  out += ",\"elements\":" + std::to_string(sim.mesh().numElements());
  out += ",\"clusters\":" + std::to_string(cl.numClusters);
  out += ",\"lts_rate\":" + std::to_string(cl.rate);
  out += ",\"dt_min\":" + jsonNumber(cl.dtMin);
  out += ",\"end_time\":" + jsonNumber(o.endTime);
  out += ",\"metrics_interval\":" + jsonNumber(o.metricsInterval);
  out += ",\"backend\":" + jsonQuote(sim.backend().name());
  out += "}";
  return out;
}

}  // namespace

RunTelemetry::RunTelemetry(TelemetryOptions options)
    : o_(std::move(options)) {}

void RunTelemetry::attach(Simulation& sim) {
  wallStart_ = wallSeconds();

  // Static per-run quantities.
  const ClusterLayout& cl = sim.clusters();
  const std::int64_t ticksPerMacro = cl.ticksPerMacro();
  const std::int64_t ltsUpdates = cl.updatesPerMacroCycleLts();
  ltsSkew_ = ltsUpdates > 0 ? static_cast<double>(cl.updatesPerMacroCycleGts()) /
                                  static_cast<double>(ltsUpdates)
                            : 1.0;
  // CFL margin: each element runs at dt_min * rate^cluster; its stable
  // timestep is at least that by construction.  The minimum ratio over
  // all elements is how much headroom the binding element has (1 = an
  // element sits exactly on its CFL limit).
  double margin = std::numeric_limits<double>::infinity();
  const Mesh& mesh = sim.mesh();
  const SolverConfig& cfg = sim.config();
  for (int e = 0; e < mesh.numElements(); ++e) {
    const real stable = elementTimestep(mesh, e, sim.materialOf(e),
                                        cfg.degree, cfg.cflFraction);
    const double used =
        cl.dtMin * static_cast<double>(cl.spanOf(cl.cluster[e]));
    margin = std::min(margin, static_cast<double>(stable) / used);
  }
  cflMargin_ = std::isfinite(margin) ? margin : 0.0;
  // Gravity-eta updates per macro cycle: every gravity face advances its
  // eta ODE once per corrector step of its element's cluster.
  if (const GravityBoundary* g = sim.gravitySurface()) {
    for (int i = 0; i < g->numFaces(); ++i) {
      const int c = cl.cluster[g->faceAt(i).elem];
      gravityUpdatesPerMacro_ +=
          static_cast<std::uint64_t>(ticksPerMacro / cl.spanOf(c));
    }
  }

  prevSlipTime_ = sim.time();
  if (const FaultSolver* f = sim.fault()) {
    prevSlipIntegral_ = f->totalSlipIntegral(
        referenceMatrices(cfg.degree), mesh);
  }
  for (int r = 0; r < sim.numReceivers(); ++r) {
    receiverSamplesSeen_ += sim.receiver(r).times.size();
  }

  if (!o_.metricsPath.empty()) {
    metricsBuffer_ = metricsHeaderJson(sim, o_);
    metricsBuffer_ += '\n';
    takeSample(sim);
    nextSampleTime_ =
        o_.metricsInterval > 0
            ? (std::floor(sim.time() / o_.metricsInterval) + 1) *
                  o_.metricsInterval
            : sim.time();
  }
  if (!o_.statusPath.empty()) {
    writeStatus(sim, "running");
  }
  sim.onMacroStep([this, &sim](real t) { onMacro(sim, t); });
}

void RunTelemetry::onMacro(Simulation& sim, real t) {
  window_.push_back({wallSeconds(), static_cast<double>(t),
                     sim.elementUpdates()});
  while (window_.size() > 16) {
    window_.pop_front();
  }

  PerfMonitor* perf = sim.perfMonitor();
  if (perf && perf->traceEnabled()) {
    perf->instant("gravity_eta_rk7_updates", gravityUpdatesPerMacro_);
    std::uint64_t samples = 0;
    for (int r = 0; r < sim.numReceivers(); ++r) {
      samples += sim.receiver(r).times.size();
    }
    perf->instant("receiver_samples", samples - receiverSamplesSeen_);
    receiverSamplesSeen_ = samples;
  }

  if (!o_.metricsPath.empty() &&
      (o_.metricsInterval <= 0 || t >= nextSampleTime_)) {
    PerfSpan span(perf, "telemetry_sample");
    takeSample(sim);
    if (o_.metricsInterval > 0) {
      nextSampleTime_ =
          (std::floor(t / o_.metricsInterval) + 1) * o_.metricsInterval;
    }
  }
  if (!o_.statusPath.empty()) {
    PerfSpan span(perf, "status_write");
    writeStatus(sim, "running");
  }
}

PhysicsSample RunTelemetry::capture(const Simulation& sim) const {
  PhysicsSample s;
  s.simTime = sim.time();
  s.wallSeconds = wallSeconds() - wallStart_;
  s.tick = sim.tick();

  const EnergyBudget e = computeEnergy(sim);
  s.energyKinetic = e.kinetic;
  s.energyElastic = e.strainElastic;
  s.energyAcoustic = e.strainAcoustic;
  s.energyTotal = e.total();

  for (const SurfaceSample& sample : sim.seaSurface()) {
    s.maxAbsEta = std::max(s.maxAbsEta, std::abs(sample.eta));
  }
  for (const SeafloorSample& sample : sim.seafloor()) {
    s.maxSeafloorUplift =
        std::max(s.maxSeafloorUplift, std::abs(sample.uplift));
  }

  if (const FaultSolver* f = sim.fault()) {
    s.peakSlipRate = f->maxSlipRate();
    s.slipIntegral = f->totalSlipIntegral(
        referenceMatrices(sim.config().degree), sim.mesh());
    const double dt = s.simTime - prevSlipTime_;
    s.momentRate = dt > 0 ? (s.slipIntegral - prevSlipIntegral_) / dt : 0.0;
  }

  s.cflMargin = cflMargin_;
  s.ltsSkew = ltsSkew_;
  s.elementUpdates = sim.elementUpdates();
  const ClusterLayout& cl = sim.clusters();
  s.clusterUpdates.resize(cl.numClusters);
  for (int c = 0; c < cl.numClusters; ++c) {
    // The scheduler updates cluster c once per spanOf(c) ticks; with the
    // clock at a macro-cycle boundary this count is exact.
    s.clusterUpdates[c] =
        static_cast<std::uint64_t>(s.tick / cl.spanOf(c)) *
        cl.elementsOfCluster[c].size();
  }
  return s;
}

void RunTelemetry::takeSample(Simulation& sim) {
  PhysicsSample s = capture(sim);
  prevSlipIntegral_ = s.slipIntegral;
  prevSlipTime_ = s.simTime;
  latest_ = s;
  hasSample_ = true;
  ++samplesTaken_;
  metricsBuffer_ += physicsSampleJson(s);
  metricsBuffer_ += '\n';
  atomicWriteFile(o_.metricsPath, metricsBuffer_);
}

std::string RunTelemetry::latestSampleJson() const {
  return hasSample_ ? physicsSampleJson(latest_) : std::string();
}

double RunTelemetry::etaSeconds(double simTime) const {
  if (window_.size() < 2 || !(o_.endTime > simTime)) {
    return o_.endTime > simTime ? -1.0 : 0.0;  // -1 = not yet known
  }
  const Progress& a = window_.front();
  const Progress& b = window_.back();
  // A stalled window (b.simTime == a.simTime, e.g. immediately after a
  // resume re-seeds it) or one narrower than the wall clock's resolution
  // has no finite rate: report "not yet known" instead of letting the
  // division produce inf/nan that would poison the status JSON.
  const double dSim = b.simTime - a.simTime;
  const double dWall = b.wall - a.wall;
  if (!(dSim > 0) || !(dWall > 0)) {
    return -1.0;
  }
  const double rate = dSim / dWall;
  const double eta = (o_.endTime - simTime) / rate;
  return std::isfinite(eta) ? eta : -1.0;
}

double RunTelemetry::recentUpdatesPerSecond() const {
  if (window_.size() < 2) {
    return 0;
  }
  const Progress& a = window_.front();
  const Progress& b = window_.back();
  const double dw = b.wall - a.wall;
  return dw > 0 ? static_cast<double>(b.updates - a.updates) / dw : 0;
}

std::string RunTelemetry::statusJson(const Simulation& sim,
                                     const char* state) const {
  const double t = sim.time();
  const double progress =
      o_.endTime > 0 ? std::min(100.0, 100.0 * t / o_.endTime) : 0.0;
  std::string out = "{\n  \"schema\": \"tsg-status-1\"";
  out += ",\n  \"state\": " + jsonQuote(state);
  out += ",\n  \"scenario\": " + jsonQuote(o_.scenario);
  out += ",\n  \"time\": " + jsonNumber(t);
  out += ",\n  \"end_time\": " + jsonNumber(o_.endTime);
  out += ",\n  \"progress_percent\": " + jsonNumber(progress);
  // -1 = not yet known (cold or stalled progress window): emit null so
  // consumers never see a sentinel (or an inf/nan) as a real ETA.
  const double eta = etaSeconds(t);
  out += ",\n  \"eta_seconds\": ";
  out += eta >= 0 && std::isfinite(eta) ? jsonNumber(eta) : "null";
  out += ",\n  \"wall_seconds\": " + jsonNumber(wallSeconds() - wallStart_);
  out += ",\n  \"tick\": " + std::to_string(sim.tick());
  out += ",\n  \"element_updates\": " + std::to_string(sim.elementUpdates());
  out += ",\n  \"updates_per_second\": " + jsonNumber(recentUpdatesPerSecond());
  if (lastCheckpointTime_ >= 0) {
    out += ",\n  \"last_checkpoint\": {\"path\": " +
           jsonQuote(lastCheckpointPath_) +
           ", \"time\": " + jsonNumber(lastCheckpointTime_) + "}";
  } else {
    out += ",\n  \"last_checkpoint\": null";
  }
  out += ",\n  \"metrics\": ";
  out += hasSample_ ? physicsSampleJson(latest_) : std::string("null");
  out += ",\n  \"counters\": " + MetricsRegistry::global().snapshotJson();
  out += "\n}\n";
  return out;
}

void RunTelemetry::writeStatus(Simulation& sim, const char* state) {
  atomicWriteFile(o_.statusPath, statusJson(sim, state));
}

void RunTelemetry::noteCheckpoint(const std::string& path, double simTime) {
  lastCheckpointPath_ = path;
  lastCheckpointTime_ = simTime;
}

void RunTelemetry::finish(Simulation& sim) {
  if (!o_.metricsPath.empty() &&
      (!hasSample_ || latest_.simTime < sim.time())) {
    takeSample(sim);
  }
  if (!o_.statusPath.empty()) {
    writeStatus(sim, "done");
  }
}

}  // namespace tsg
