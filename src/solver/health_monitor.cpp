#include "solver/health_monitor.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"
#include "common/kernel_path.hpp"
#include "io/atomic_file.hpp"
#include "io/vtk_writer.hpp"
#include "solver/diagnostics.hpp"

namespace tsg {

namespace {

/// Absolute energies below this are noise; growth checks ignore them.
constexpr real kEnergyFloor = 1e-8;
/// Energy samples retained for the incident report.
constexpr int kHistoryLength = 32;

/// JSON-safe number: non-finite values have no JSON literal, so emit them
/// as strings ("nan", "inf") rather than invalid tokens.
std::string incidentNumber(real v) {
  if (std::isfinite(v)) {
    return jsonNumber(v);
  }
  return std::isnan(v) ? "\"nan\"" : (v > 0 ? "\"inf\"" : "\"-inf\"");
}

}  // namespace

std::string incidentJson(const HealthReport& report) {
  std::string out = "{\n  \"reason\": " + jsonQuote(report.reason);
  out += ",\n  \"time\": " + incidentNumber(report.time);
  out += ",\n  \"tick\": " + std::to_string(report.tick);
  out += ",\n  \"element\": " + std::to_string(report.element);
  out += ",\n  \"cluster\": " + std::to_string(report.cluster);
  out += ",\n  \"gravity_face\": " + std::to_string(report.gravityFace);
  out += ",\n  \"fault_face\": " + std::to_string(report.faultFace);
  out += ",\n  \"backend\": " + jsonQuote(report.backend);
  out += ",\n  \"kernel_path\": " + jsonQuote(report.kernelPath);
  {
    // As a hex string: a u64 hash does not fit a double-backed JSON
    // number, and this matches the checkpoint mismatch diagnostics.
    char hash[32];
    std::snprintf(hash, sizeof hash, "\"0x%016llx\"",
                  static_cast<unsigned long long>(report.configHash));
    out += ",\n  \"config_hash\": ";
    out += hash;
  }
  out += ",\n  \"metrics\": ";
  out += report.metricsJson.empty() ? "null" : report.metricsJson;
  out += ",\n  \"energy_history\": [";
  for (std::size_t i = 0; i < report.energyHistory.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += incidentNumber(report.energyHistory[i]);
  }
  out += "]\n}\n";
  return out;
}

HealthMonitor::HealthMonitor(HealthMonitorConfig cfg) : cfg_(std::move(cfg)) {}

void HealthMonitor::attach(Simulation& sim) {
  sim.onMacroStep([this, &sim](real) {
    PerfSpan span(sim.perfMonitor(), "health_scan");
    check(sim);
  });
}

void HealthMonitor::check(const Simulation& sim) {
  HealthReport report;
  report.time = sim.time();
  report.tick = sim.tick();
  report.backend = sim.backend().name();
  report.kernelPath = kernelPathName(sim.config().kernelPath);
  report.configHash = sim.configHash();
  if (metricsProvider_) {
    report.metricsJson = metricsProvider_();
  }

  // Cheapest and most specific first: a non-finite DOF pinpoints the
  // element (and its time cluster) where the blow-up originated.
  const int badElem = sim.firstNonFiniteElement();
  if (badElem >= 0) {
    report.element = badElem;
    report.cluster = sim.clusters().cluster[badElem];
    report.reason = "non-finite DOFs in element " + std::to_string(badElem) +
                    " (cluster " + std::to_string(report.cluster) + ")";
    report.energyHistory = history_;
    fail(sim, std::move(report));
  }
  if (const GravityBoundary* g = sim.gravitySurface()) {
    const int badFace = g->firstNonFiniteFace();
    if (badFace >= 0) {
      report.gravityFace = badFace;
      report.reason = "non-finite sea-surface eta on gravity face " +
                      std::to_string(badFace);
      report.energyHistory = history_;
      fail(sim, std::move(report));
    }
  }
  if (const FaultSolver* f = sim.fault()) {
    const int badFace = f->firstNonFiniteFace();
    if (badFace >= 0) {
      report.faultFace = badFace;
      report.reason = "non-finite fault state on fault face " +
                      std::to_string(badFace);
      report.energyHistory = history_;
      fail(sim, std::move(report));
    }
  }

  const real energy = computeEnergy(sim).total();
  const real prev = history_.empty() ? real(0) : history_.back();
  history_.push_back(energy);
  if (static_cast<int>(history_.size()) > kHistoryLength) {
    history_.erase(history_.begin());
  }
  report.energyHistory = history_;
  if (!std::isfinite(energy)) {
    report.reason = "non-finite total energy";
    fail(sim, std::move(report));
  }
  if (prev > kEnergyFloor && energy > kEnergyFloor &&
      energy > cfg_.maxEnergyGrowthFactor * prev) {
    std::ostringstream why;
    why.precision(6);
    why << "energy grew " << (energy / prev) << "x in one macro cycle ("
        << prev << " -> " << energy << "), beyond the allowed "
        << cfg_.maxEnergyGrowthFactor << "x (CFL/ODE instability signature)";
    report.reason = why.str();
    fail(sim, std::move(report));
  }
}

void HealthMonitor::fail(const Simulation& sim, HealthReport report) {
  std::string dumpNote;
  const std::string vtkPath = cfg_.outputPrefix + "_failure.vtk";
  const std::string jsonPath = cfg_.outputPrefix + "_incident.json";
  // Dump failures must not mask the divergence diagnosis: report them
  // inside the thrown error instead of throwing IoError here.
  try {
    writeVtkWavefield(vtkPath, sim);
    atomicWriteFile(jsonPath, incidentJson(report));
    dumpNote =
        "; wavefield dump: " + vtkPath + ", incident report: " + jsonPath;
  } catch (const std::exception& e) {
    dumpNote = std::string("; failed to write failure dump: ") + e.what();
  }
  std::ostringstream what;
  what.precision(6);
  what << "solver diverged at t = " << report.time << " s (tick "
       << report.tick << "): " << report.reason << dumpNote;
  throw SolverDivergedError(what.str(), std::move(report));
}

}  // namespace tsg
