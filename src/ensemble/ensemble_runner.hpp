#pragma once

// Ensemble engine: execute an expanded sweep plan against shared
// immutable SimulationAssets.
//
// Each member runs through the exact standalone pipeline
// (runner/run_pipeline.hpp) on its own written config file; the only
// injected seams are the shared-asset provider, the checkpoint resume
// override, and the fleet progress callback.  Structurally identical
// members (same mesh/material/structural-config hash) attach to ONE
// asset build -- the cache counts builds and hits so the driver can
// report measured reuse.
//
// Members are dispatched to a pool of `workers` std::threads pulling
// from an atomic index.  OpenMP thread counts are an ICV of the calling
// thread, so each worker sizes its members' parallel regions without
// clobbering the others: when the run config leaves `threads` at 0 and
// workers > 1, each member gets max(1, ambient / workers) threads.
//
// Crash recovery: when `autoResume` is set, a member whose output
// directory already holds `<memberPrefix>_ckpt_<tick>.tsgck` files
// resumes from the newest one via the resume-override hook.  The
// override never touches the rendered member config text, whose bytes
// are the member's provenance (scenario hash) -- so a resumed member
// still validates against its own checkpoints.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ensemble/sweep_expansion.hpp"
#include "runner/run_pipeline.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {

/// Thread-safe build-once cache of SimulationAssets keyed by asset hash.
class AssetCache {
 public:
  /// Return the cached assets for the bundle's asset hash, building them
  /// (from copies of the bundle's mesh and material table) on a miss.
  std::shared_ptr<const SimulationAssets> acquire(const ScenarioBundle& bundle);

  std::size_t built() const;
  std::size_t hits() const;
  /// Total wall seconds spent inside asset builds.
  double buildSeconds() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const SimulationAssets>> cache_;
  std::size_t built_ = 0;
  std::size_t hits_ = 0;
  double buildSeconds_ = 0;
};

struct EnsembleOptions {
  int workers = 0;         // 0 = plan.workers
  bool autoResume = true;  // resume members from their newest checkpoint
  std::string statusPath;  // fleet tsg-status-1 roll-up ("" = none)
};

struct MemberOutcome {
  int index = -1;
  std::string prefix;
  std::string configPath;
  std::map<std::string, std::string> overrides;
  bool ok = false;
  bool resumed = false;
  std::string error;  // what() of the member's failure, "" when ok
  double wallSeconds = 0;
  RunResult result;  // valid only when ok
};

struct EnsembleResult {
  std::vector<MemberOutcome> members;
  std::size_t assetsBuilt = 0;
  std::size_t assetCacheHits = 0;
  double assetBuildSeconds = 0;
  double wallSeconds = 0;
  bool allOk() const {
    for (const auto& m : members)
      if (!m.ok) return false;
    return !members.empty();
  }
};

/// Newest checkpoint path for a member prefix ("" when none exist).
/// Scans the prefix's directory for `<base>_ckpt_<tick>.tsgck` and picks
/// the highest tick.
std::string newestCheckpoint(const std::string& prefix);

/// Write the member config files and run the plan.  Member failures are
/// captured in their outcomes, not thrown; only driver-level errors
/// (unwritable config files) propagate.
EnsembleResult runEnsemble(const EnsemblePlan& plan,
                           const EnsembleOptions& opts);

}  // namespace tsg
