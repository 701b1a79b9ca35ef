// tsunamigen CLI driver: run a scenario from a key = value parameter
// file (the role of SeisSol's parameter file) and write VTK +
// receiver-CSV output, with checkpoint/restart, run-health guardrails,
// and live telemetry for operating long runs.  The actual run logic
// lives in runner/run_pipeline.hpp, shared verbatim with the ensemble
// driver (tsunamigen_ensemble) so a standalone run of a member config
// is bitwise identical to the ensemble member.
//
// Usage:
//   tsunamigen_cli [--perf-report[=path]] [--trace[=path]]
//                  [--status[=path]] [--log-level=<lvl>] [--log-json]
//                  <config-file>
//   tsunamigen_cli --example-config     (prints a template and exits)
//
// --perf-report writes the per-phase x per-cluster kernel performance
// breakdown (schema "tsg-perf-1", default path <output_prefix>_perf.json);
// --trace additionally writes a chrome://tracing-compatible event file
// (default <output_prefix>_trace.json) covering kernel phases plus
// checkpoint, output-I/O, health-scan, and telemetry spans.
// --status rewrites a live heartbeat JSON (schema "tsg-status-1",
// default <output_prefix>_status.json) atomically every macro cycle;
// the `metrics_interval` config key enables the physics time series
// (schema "tsg-metrics-1", <output_prefix>_metrics.jsonl).
// --log-level filters the event log (debug|info|warn|error|off);
// --log-json switches it from human lines to JSONL on stdout.
//
// Exit codes (machine-readable for schedulers / retry wrappers):
//   0  success
//   2  configuration error (bad key, invalid value, bad scenario source)
//   3  solver diverged (health monitor; *_failure.vtk + *_incident.json)
//   4  I/O failure (unwritable output, unreadable/corrupt checkpoint)
//   1  any other error

#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "runner/run_pipeline.hpp"
#include "solver/health_monitor.hpp"
#include "telemetry/logging.hpp"

using namespace tsg;

namespace {

constexpr const char* kTemplate = R"(# tsunamigen run configuration
# Scenario selection, one of two forms (see README "Scenario configs"):
#   preset = examples/presets/palu.cfg    config-driven scenario file
#   inline [section] blocks               DSL sections in this file
preset              = examples/presets/megathrust.cfg
degree              = 2            # polynomial order 1..5
end_time            = 10.0         # [s], > 0
output_prefix       = run
vtk_output          = true         # write wavefield + sea-surface VTK at the end
lts                 = true         # rate-2 clustered local time stepping
snapshots           = 4            # progress reports over the run (>= 1)
# --- operating long runs (see README "Operating long runs") ---
checkpoint_interval = 0            # [s] of simulated time between checkpoints; 0 = off
keep_checkpoints    = 3            # checkpoint files retained (rotation)
resume              =              # path to a checkpoint to restart from
health_check        = true         # NaN/Inf + energy blow-up monitor per macro cycle
max_energy_growth   = 100.0        # allowed energy growth factor per macro cycle
metrics_interval    = 0            # [s] of simulated time between physics samples
                                   # written to <output_prefix>_metrics.jsonl; 0 = off
kernel_path         = batched      # reference (per element) | batched (fused cluster
                                   # tiles, bitwise == reference)
threads             = 0            # OpenMP worker threads; 0 = OMP_NUM_THREADS/default.
                                   # Results are bitwise identical across thread counts.
pin_threads         = false        # pin workers to cores (paper Sec. 5.2 placement)
# batch_size        = 0            # elements per batch tile; 0 = auto L1d-sized (expert)
# cfl_fraction      = 0.35         # override the CFL fraction (expert)
)";

int run(const std::string& configPath, const std::string& perfReportRequest,
        const std::string& traceRequest, const std::string& statusRequest) {
  const ConfigFile cfg = ConfigFile::load(configPath);
  RunOptions o = readRunOptions(cfg);
  if (!perfReportRequest.empty()) {
    o.perfReportPath = perfReportRequest == "*" ? o.prefix + "_perf.json"
                                                : perfReportRequest;
  }
  if (!traceRequest.empty()) {
    o.tracePath =
        traceRequest == "*" ? o.prefix + "_trace.json" : traceRequest;
  }
  if (!statusRequest.empty()) {
    o.statusPath =
        statusRequest == "*" ? o.prefix + "_status.json" : statusRequest;
  }
  runPipeline(configPath, cfg, o);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string configPath, perfReportRequest, traceRequest, statusRequest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--example-config") {
      std::fputs(kTemplate, stdout);
      return 0;
    } else if (arg == "--perf-report") {
      perfReportRequest = "*";  // resolved to <output_prefix>_perf.json
    } else if (arg.rfind("--perf-report=", 0) == 0) {
      perfReportRequest = arg.substr(std::strlen("--perf-report="));
    } else if (arg == "--trace") {
      traceRequest = "*";  // resolved to <output_prefix>_trace.json
    } else if (arg.rfind("--trace=", 0) == 0) {
      traceRequest = arg.substr(std::strlen("--trace="));
    } else if (arg == "--status") {
      statusRequest = "*";  // resolved to <output_prefix>_status.json
    } else if (arg.rfind("--status=", 0) == 0) {
      statusRequest = arg.substr(std::strlen("--status="));
    } else if (arg == "--log-json") {
      logger().setJson(true);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      const std::string level = arg.substr(std::strlen("--log-level="));
      if (const auto parsed = parseLogLevel(level)) {
        logger().setLevel(*parsed);
      } else {
        std::fprintf(stderr,
                     "--log-level must be debug|info|warn|error|off "
                     "(got '%s')\n",
                     level.c_str());
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    } else if (configPath.empty()) {
      configPath = arg;
    } else {
      std::fprintf(stderr, "more than one config file given\n");
      return 2;
    }
  }
  if (configPath.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--perf-report[=path]] [--trace[=path]] "
                 "[--status[=path]] [--log-level=<lvl>] [--log-json] "
                 "<config-file>\n       %s --example-config\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    return run(configPath, perfReportRequest, traceRequest, statusRequest);
  } catch (const ConfigError& e) {
    logError("config_error", std::string("configuration error: ") + e.what());
    return 2;
  } catch (const SolverDivergedError& e) {
    logError("solver_diverged", std::string("error: ") + e.what());
    return 3;
  } catch (const IoError& e) {
    // Includes CheckpointError: unreadable/corrupt/incompatible restarts.
    logError("io_error", std::string("I/O error: ") + e.what());
    return 4;
  } catch (const std::exception& e) {
    logError("error", std::string("error: ") + e.what());
    return 1;
  }
}
