#pragma once

// RunTelemetry: the per-macro-cycle observability driver of a long run.
// Attached to a Simulation as an onMacroStep callback (register it
// BEFORE the health monitor, so the trajectory of a diverging run --
// including the fatal cycle -- is captured and flushed before the
// monitor throws), it produces:
//
//  * the physics time series (schema "tsg-metrics-1"): one JSONL record
//    per `metricsInterval` of simulated time (every macro cycle when the
//    interval is 0) with energy budget, max |eta|, seafloor uplift,
//    moment rate / peak slip rate, CFL margin, and the LTS work
//    distribution.  The stream is a header record followed by samples,
//    rewritten atomically (temp + rename) on every flush so a SIGKILL at
//    any moment leaves a complete, parseable file;
//
//  * the live status heartbeat (schema "tsg-status-1", default
//    `<prefix>_status.json`): progress %, ETA from a sliding window of
//    recent throughput, wall time, last checkpoint, the latest metrics
//    sample, and this run's own counters (macro cycles seen, checkpoints
//    noted) -- rewritten atomically every macro cycle, so
//    `watch cat run_status.json` follows the run;
//
//  * chrome-trace enrichment when the PerfMonitor trace is on: spans for
//    its own sampling/status work plus per-macro-cycle instant events
//    for gravity-eta RK updates and receiver samples (which happen
//    inside parallel kernel regions and cannot be spanned individually).
//
// Cost model: capture runs computeEnergy (one threaded quadrature pass
// over all elements on the tabulated basis, bitwise independent of the
// thread count; the health monitor runs the same pass per cycle) plus
// O(faces + receivers) reductions; the JSONL rewrite is O(samples so
// far), so long runs should set a metricsInterval that keeps the stream
// to a few thousand records.  With no telemetry configured nothing is
// attached and the stepping loop is untouched (zero cost).

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "solver/simulation.hpp"
#include "telemetry/physics_sample.hpp"

namespace tsg {

struct TelemetryOptions {
  /// Simulated seconds between physics samples; <= 0 samples every
  /// macro cycle (when metricsPath is set).
  double metricsInterval = 0;
  /// JSONL stream path; empty disables the physics time series.
  std::string metricsPath;
  /// Status heartbeat path; empty disables the heartbeat.
  std::string statusPath;
  /// Progress / ETA denominator (the run's target simulated time).
  double endTime = 0;
  std::string scenario;
};

class RunTelemetry {
 public:
  explicit RunTelemetry(TelemetryOptions options);

  /// Register the per-macro-cycle callback, take the initial sample, and
  /// write the first status heartbeat.  The telemetry must outlive the
  /// simulation's stepping calls.
  void attach(Simulation& sim);

  /// Record a completed checkpoint for the status heartbeat.
  void noteCheckpoint(const std::string& path, double simTime);

  /// Final flush + "done" status (call after the stepping loop).
  void finish(Simulation& sim);

  /// Latest physics sample; null before the first capture.
  const PhysicsSample* latestSample() const {
    return hasSample_ ? &latest_ : nullptr;
  }
  /// Latest sample as a JSON object, "" before the first capture (the
  /// health monitor embeds this in incident reports).
  std::string latestSampleJson() const;

  /// Capture all observables from the current state (exposed for tests).
  PhysicsSample capture(const Simulation& sim) const;

  /// Status heartbeat document (exposed for tests).
  std::string statusJson(const Simulation& sim, const char* state) const;

  int samplesTaken() const { return samplesTaken_; }

 private:
  void onMacro(Simulation& sim, real t);
  void takeSample(Simulation& sim);
  void writeStatus(Simulation& sim, const char* state);
  double etaSeconds(double simTime) const;
  double recentUpdatesPerSecond() const;

  TelemetryOptions o_;
  double wallStart_ = 0;

  // Static per-run quantities computed once at attach.
  double cflMargin_ = 0;
  double ltsSkew_ = 0;
  std::uint64_t gravityUpdatesPerMacro_ = 0;

  // Metrics stream (header + records), rewritten atomically per flush.
  std::string metricsBuffer_;
  double nextSampleTime_ = 0;
  int samplesTaken_ = 0;

  PhysicsSample latest_;
  bool hasSample_ = false;
  double prevSlipIntegral_ = 0;
  double prevSlipTime_ = 0;

  // Sliding (wall, simTime, elementUpdates) window for ETA / throughput.
  struct Progress {
    double wall, simTime;
    std::uint64_t updates;
  };
  std::deque<Progress> window_;

  std::uint64_t receiverSamplesSeen_ = 0;

  std::string lastCheckpointPath_;
  double lastCheckpointTime_ = -1;

  // The status "counters": onMacro and noteCheckpoint calls of this run.
  std::uint64_t macroCycles_ = 0;
  std::uint64_t checkpointSaves_ = 0;
};

}  // namespace tsg
