// tsunamigen ensemble driver: expand a sweep config into N member
// configs, run them concurrently against shared SimulationAssets, and
// aggregate the receiver summaries into one hazard-surface JSON.
//
// Usage:
//   tsunamigen_ensemble [--workers=N] [--status[=path]] [--no-resume]
//                       [--dry-run] [--log-level=<lvl>] [--log-json]
//                       <sweep-config>
//   tsunamigen_ensemble --example-config   (prints a template and exits)
//
// The sweep config is an ordinary run config plus [[sweep]] sections
// (and an optional [ensemble] section); see src/ensemble/
// sweep_expansion.hpp for the format.  The driver writes
//   <prefix>_member_<k>.cfg        the expanded member configs
//   <prefix>_member_<k>_*          each member's normal run outputs
//   <prefix>_hazard.json           the "tsg-hazard-1" aggregate
// and, with --status, a fleet-level "tsg-status-1" roll-up (default
// <prefix>_fleet_status.json) plus per-member heartbeats.
// --dry-run prints the expanded members and validates each member's run
// options as a real run would, without writing or running anything.
//
// Every member config is a self-contained standalone run:
// `tsunamigen_cli <prefix>_member_<k>.cfg` reproduces the member's
// outputs bit for bit (both drivers execute runner/run_pipeline.hpp).
// Interrupted ensembles restart cheaply: re-running the driver resumes
// each member from its newest checkpoint (disable with --no-resume).
//
// Exit codes: 0 all members succeeded; 5 some members failed (the
// hazard JSON still aggregates the survivors); 2 configuration error;
// 4 I/O failure; 1 any other driver error.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/hazard_aggregator.hpp"
#include "ensemble/sweep_expansion.hpp"
#include "runner/run_pipeline.hpp"
#include "telemetry/logging.hpp"

using namespace tsg;

namespace {

constexpr const char* kTemplate = R"(# tsunamigen ensemble sweep configuration
# An ordinary run config (see tsunamigen_cli --example-config) plus
# [[sweep]] axes.  Everything outside [ensemble]/[[sweep]] is copied
# into every member config.
preset              = examples/presets/quickstart.cfg
degree              = 2
end_time            = 1.0
output_prefix       = sweep        # members become sweep_member_<k>
checkpoint_interval = 0.25         # per-member checkpoints enable resume
metrics_interval    = 0.25         # per-member tsg-metrics-1 JSONL
vtk_output          = false

[ensemble]
workers = 2                        # concurrent members
mode = cartesian                   # cartesian (cross product) | zip

[[sweep]]
key = cfl_fraction                 # top-level or section-qualified key
values = 0.3, 0.35

[[sweep]]
key = lts
values = true, false
)";

int run(const std::string& configPath, int workersOverride,
        const std::string& statusRequest, bool autoResume, bool dryRun) {
  const ConfigFile cfg = ConfigFile::load(configPath);
  EnsemblePlan plan = expandSweep(cfg);

  if (dryRun) {
    for (const EnsembleMember& m : plan.members) {
      readRunOptions(ConfigFile::parse(m.configText));
      std::printf("member %d -> %s\n", m.index, m.configPath.c_str());
      for (const auto& [key, value] : m.overrides) {
        std::printf("    %s = %s\n", key.c_str(), value.c_str());
      }
    }
    std::printf("%zu members, %d workers\n", plan.members.size(),
                workersOverride > 0 ? workersOverride : plan.workers);
    return 0;
  }

  EnsembleOptions opts;
  opts.workers = workersOverride;
  opts.autoResume = autoResume;
  if (!statusRequest.empty()) {
    opts.statusPath = statusRequest == "*"
                          ? plan.prefix + "_fleet_status.json"
                          : statusRequest;
  }

  const EnsembleResult result = runEnsemble(plan, opts);

  const std::string hazardPath = plan.prefix + "_hazard.json";
  writeHazardJson(hazardPath, plan, result);
  logInfo("hazard_written", "wrote " + hazardPath,
          {logStr("path", hazardPath)});

  if (!result.allOk()) {
    int failed = 0;
    for (const auto& m : result.members) {
      if (!m.ok) ++failed;
    }
    logError("ensemble_failed",
             std::to_string(failed) + " of " +
                 std::to_string(result.members.size()) + " members failed");
    return 5;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string configPath, statusRequest;
  int workersOverride = 0;
  bool autoResume = true;
  bool dryRun = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--example-config") {
      std::fputs(kTemplate, stdout);
      return 0;
    } else if (arg.rfind("--workers=", 0) == 0) {
      // The whole value must be an integer, as for a config value.
      const char* first = arg.c_str() + std::strlen("--workers=");
      const char* last = arg.c_str() + arg.size();
      const auto [end, ec] = std::from_chars(first, last, workersOverride);
      if (ec != std::errc() || end != last || workersOverride < 1) {
        std::fprintf(stderr, "--workers must be a positive integer\n");
        return 2;
      }
    } else if (arg == "--status") {
      statusRequest = "*";  // resolved to <prefix>_fleet_status.json
    } else if (arg.rfind("--status=", 0) == 0) {
      statusRequest = arg.substr(std::strlen("--status="));
    } else if (arg == "--no-resume") {
      autoResume = false;
    } else if (arg == "--dry-run") {
      dryRun = true;
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
                 "usage: %s [--workers=N] [--status[=path]] [--no-resume] "
                 "[--dry-run] [--log-level=<lvl>] [--log-json] "
                 "<sweep-config>\n       %s --example-config\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    return run(configPath, workersOverride, statusRequest, autoResume,
               dryRun);
  } catch (const ConfigError& e) {
    logError("config_error", std::string("configuration error: ") + e.what());
    return 2;
  } catch (const IoError& e) {
    logError("io_error", std::string("I/O error: ") + e.what());
    return 4;
  } catch (const std::exception& e) {
    logError("error", std::string("error: ") + e.what());
    return 1;
  }
}
