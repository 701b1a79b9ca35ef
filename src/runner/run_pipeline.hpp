#pragma once

// The shared run pipeline: everything between "here is a run config
// file" and "the outputs are on disk" -- option validation, scenario
// resolution, simulation construction, checkpoint restore/rotation,
// telemetry, health monitoring, the snapshot stepping loop, and output
// writing.  Extracted from the CLI driver so that the ensemble engine
// executes each member through the EXACT same code path as a standalone
// `tsunamigen_cli <member.cfg>` invocation -- bitwise equality between
// an ensemble member and its standalone twin is then a property of
// construction, not of careful duplication.
//
// The only ensemble-specific seams are injected:
//  * an AssetProvider callback that may return prebuilt shared
//    SimulationAssets for the resolved bundle (null = build privately);
//  * a resume override (the ensemble auto-resumes members from their own
//    newest checkpoint without touching the rendered config text, which
//    must stay byte-stable because its hash is the member's provenance);
//  * a progress callback for the fleet status roll-up.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "scenario/scenario.hpp"
#include "solver/simulation.hpp"
#include "solver/solver_config.hpp"

namespace tsg {

/// Validated run options (the config-file surface of the CLI).
struct RunOptions {
  std::string preset;           // path to a scenario preset file
  bool inlineScenario = false;  // DSL sections in the run config itself
  int degree = 2;
  real endTime = 2.0;
  std::string prefix = "run";
  bool vtk = true;
  bool lts = true;
  int snapshots = 4;
  real checkpointInterval = 0;
  int keepCheckpoints = 3;
  std::string resume;
  bool healthCheck = true;
  real maxEnergyGrowth = 100.0;
  real metricsInterval = 0;  // 0 = no metrics stream
  real cflFraction = 0;      // 0 = scenario default
  KernelPath kernelPath = KernelPath::kBatched;
  int batchSize = 0;  // 0 = auto
  int threads = 0;    // 0 = ambient OpenMP default
  bool pinThreads = false;
  // Resolved from the command line / driver, not the config file.
  std::string perfReportPath;  // empty = no report
  std::string tracePath;       // empty = no chrome trace
  std::string statusPath;      // empty = no status heartbeat
};

/// Read and validate all options.  Throws ConfigError on any invalid
/// value instead of silently running a zero-step "success".  The legacy
/// `scenario = <class>` key is a hard error (compiled-in scenarios are
/// test fixtures now; use `preset = <file>` or inline sections).
RunOptions readRunOptions(const ConfigFile& cfg);

/// The one place where config-file keys map onto SolverConfig fields,
/// shared by every scenario branch.
void applySolverOptions(SolverConfig& sc, const RunOptions& o);

/// Resolve the scenario source (preset file or inline DSL sections) into
/// a bundle.  Resumed runs must rebuild the identical setup, so this is
/// a pure function of the validated options and the config file.
ScenarioBundle resolveScenario(const RunOptions& o, const ConfigFile& cfg);

/// FNV-1a over a file's raw bytes: the provenance hash of an expanded
/// member config (stored as the checkpoint scenario hash).  Throws
/// IoError if unreadable.
std::uint64_t hashFileBytes(const std::string& path);

/// Per-receiver hazard observables computed from the recorded series.
struct ReceiverSummary {
  std::string name;
  bool acoustic = false;    // receiver element is in the water column
  double maxAbsPressure = 0;  // peak |-(sxx+syy+szz)/3| [Pa]
  double maxEta = 0;          // pressure / (rho g) proxy [m]; acoustic only
  double peakVelocity = 0;    // peak |v| (PGV) [m/s]
  double arrivalTime = -1;    // first t with |p| >= 5% of peak; -1 = none
  std::size_t samples = 0;
};

struct RunResult {
  std::string scenarioName;
  double simulatedTime = 0;
  std::uint64_t elementUpdates = 0;
  std::uint64_t configHash = 0;
  std::uint64_t assetHash = 0;
  std::uint64_t scenarioHash = 0;
  std::vector<ReceiverSummary> receivers;
};

/// Optional shared-asset source: given the resolved bundle (after solver
/// options were applied), return prebuilt assets to attach the run to,
/// or null to let the run build its own.
using AssetProvider = std::function<std::shared_ptr<const SimulationAssets>(
    const ScenarioBundle& bundle)>;

/// Driver-side extras that must not live in the config file.
struct RunHooks {
  /// Checkpoint to resume from, overriding the config's `resume` key
  /// (empty = use the config's).
  std::string resumeOverride;
  /// Called after every macro cycle with (simulated time, end time).
  std::function<void(double t, double endTime)> onProgress;
  /// Shared-asset source (ensemble); null = standalone.
  AssetProvider assetProvider;
};

/// Execute a full run from a config file path.  `o` must have been read
/// from the same file (the driver resolves perf/trace/status paths on
/// top of readRunOptions before calling).  Throws the same exceptions as
/// the CLI maps onto exit codes (ConfigError, SolverDivergedError,
/// IoError, ...).
RunResult runPipeline(const std::string& configPath, const ConfigFile& cfg,
                      const RunOptions& o, const RunHooks& hooks = {});

}  // namespace tsg
