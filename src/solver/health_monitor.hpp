#pragma once

// Run-health guardrails for long coupled runs.
//
// Fully-coupled elasto-acoustic stepping with the stiff gravity-surface
// ODE is stability-sensitive (paper Sec. 4.3/6); a CFL or ODE instability
// shows up as exponential energy growth followed by NaN/Inf state, and an
// unmonitored run then burns hours writing NaN output.  The HealthMonitor
// hooks the macro-step loop and, after every completed macro cycle, scans
//
//   * DOFs (first non-finite element),
//   * sea-surface eta samples,
//   * fault friction state / slip rates,
//   * total mechanical energy (non-finite, or growth beyond a
//     configurable factor per macro cycle -- the blow-up signature),
//
// and on trigger fails loudly: it writes a `<prefix>_failure.vtk`
// wavefield dump plus a `<prefix>_incident.json` report (time, tick,
// offending element/cluster, energy history) and throws the typed
// SolverDivergedError, so the caller stops at the last consistent
// macro-cycle boundary instead of producing silent NaN-filled output.
//
// Cost per check: the DOF scan and computeEnergy are threaded passes over
// all elements (the energy pass reads the tabulated basis and sums its
// per-element partials in element order, so the energy history is bitwise
// identical at every thread count); the eta and fault scans are
// O(gravity faces) and O(fault faces).

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "solver/simulation.hpp"

namespace tsg {

/// Structured description of a divergence incident.
struct HealthReport {
  std::string reason;       // human-readable trigger description
  real time = 0;            // simulated time at the failed check [s]
  std::int64_t tick = 0;    // dtMin ticks at the failed check
  int element = -1;         // offending element (non-finite DOFs), or -1
  int cluster = -1;         // LTS cluster of `element`, or -1
  int gravityFace = -1;     // offending gravity face, or -1
  int faultFace = -1;       // offending fault face, or -1
  std::vector<real> energyHistory;  // total energy, oldest first
  // Run metadata, so an incident report alone identifies the build/config
  // that produced it (bug reports arrive without the run's stdout).
  std::string backend;      // kernel backend name ("batched", ...)
  std::string kernelPath;   // configured kernel path name
  std::uint64_t configHash = 0;  // solver config hash (checkpoint identity)
  // Latest telemetry physics sample as a JSON object ("" when no
  // telemetry is attached); embedded verbatim in the incident JSON.
  std::string metricsJson;
};

/// Typed divergence error surfaced by the health monitor (CLI exit 3).
class SolverDivergedError : public std::runtime_error {
 public:
  SolverDivergedError(const std::string& what, HealthReport report)
      : std::runtime_error(what), report_(std::move(report)) {}
  const HealthReport& report() const { return report_; }

 private:
  HealthReport report_;
};

struct HealthMonitorConfig {
  /// Trigger when total energy exceeds `maxEnergyGrowthFactor` times the
  /// previous macro cycle's energy (both above the fixed noise floor
  /// kEnergyFloor of health_monitor.cpp).  The DG scheme is dissipative
  /// up to the bounded input of nucleation and gravity forcing, so
  /// sustained 100x-per-cycle growth is always an instability, never
  /// physics.
  real maxEnergyGrowthFactor = 100.0;
  /// Prefix for `<prefix>_failure.vtk` and `<prefix>_incident.json`.
  std::string outputPrefix = "run";
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorConfig cfg = {});

  /// Register this monitor as an onMacroStep callback of `sim`.  The
  /// monitor must outlive the simulation's stepping calls.
  void attach(Simulation& sim);

  /// Supply the latest telemetry sample (a JSON object, or "") for
  /// embedding in incident reports.  Typically
  /// RunTelemetry::latestSampleJson, registered after both are attached.
  void setMetricsProvider(std::function<std::string()> provider) {
    metricsProvider_ = std::move(provider);
  }

  /// Run all checks against the current state; throws SolverDivergedError
  /// (after writing the failure dump and incident report) when the run
  /// has diverged.
  void check(const Simulation& sim);

  const std::vector<real>& energyHistory() const { return history_; }

 private:
  [[noreturn]] void fail(const Simulation& sim, HealthReport report);

  HealthMonitorConfig cfg_;
  std::vector<real> history_;
  std::function<std::string()> metricsProvider_;
};

/// Serialize a HealthReport as the incident JSON document (exposed for
/// testing; HealthMonitor writes it to `<prefix>_incident.json`).
std::string incidentJson(const HealthReport& report);

}  // namespace tsg
