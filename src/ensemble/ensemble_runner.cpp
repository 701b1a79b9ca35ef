#include "ensemble/ensemble_runner.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/errors.hpp"
#include "common/json.hpp"
#include "io/atomic_file.hpp"
#include "telemetry/logging.hpp"

namespace tsg {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fleet-level roll-up of member progress, written atomically as a
/// "tsg-status-1" document (the same schema family as the per-run
/// heartbeat, with a `members` array instead of solver counters).
class FleetStatus {
 public:
  struct Member {
    std::string prefix;
    std::string state = "pending";  // pending | running | done | failed
    double time = 0;
    double endTime = 0;
    std::string error;
  };

  FleetStatus(std::string path, const EnsemblePlan& plan)
      : path_(std::move(path)), start_(nowSeconds()) {
    members_.resize(plan.members.size());
    for (std::size_t i = 0; i < plan.members.size(); ++i) {
      members_[i].prefix = plan.members[i].prefix;
    }
  }

  void memberState(int index, const std::string& state,
                   const std::string& error = "") {
    if (path_.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    members_[index].state = state;
    members_[index].error = error;
    write(/*force=*/true);
  }

  void memberProgress(int index, double t, double endTime) {
    if (path_.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    members_[index].time = t;
    members_[index].endTime = endTime;
    write(/*force=*/false);
  }

  void finish(const std::string& state) {
    if (path_.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    fleetState_ = state;
    write(/*force=*/true);
  }

 private:
  // Caller holds mutex_.  Progress updates arrive once per macro cycle
  // per member; throttle the disk writes, but never drop a forced state
  // transition.
  void write(bool force) {
    const double now = nowSeconds();
    if (!force && now - lastWrite_ < 0.2) return;
    lastWrite_ = now;

    int done = 0, failed = 0, running = 0;
    double progressSum = 0;
    for (const Member& m : members_) {
      if (m.state == "done") ++done;
      if (m.state == "failed") ++failed;
      if (m.state == "running") ++running;
      double p = m.endTime > 0 ? 100.0 * m.time / m.endTime : 0.0;
      if (m.state == "done") p = 100.0;
      progressSum += std::min(100.0, std::max(0.0, p));
    }
    const auto n = static_cast<double>(members_.size());

    std::string out = "{\n  \"schema\": \"tsg-status-1\"";
    out += ",\n  \"state\": " + jsonQuote(fleetState_);
    out += ",\n  \"members_total\": " + std::to_string(members_.size());
    out += ",\n  \"members_done\": " + std::to_string(done);
    out += ",\n  \"members_failed\": " + std::to_string(failed);
    out += ",\n  \"members_running\": " + std::to_string(running);
    out += ",\n  \"progress_percent\": " +
           jsonNumber(n > 0 ? progressSum / n : 0.0);
    out += ",\n  \"wall_seconds\": " + jsonNumber(now - start_);
    out += ",\n  \"members\": [";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      out += i ? ",\n    {" : "\n    {";
      out += "\"index\": " + std::to_string(i);
      out += ", \"prefix\": " + jsonQuote(m.prefix);
      out += ", \"state\": " + jsonQuote(m.state);
      out += ", \"time\": " + jsonNumber(m.time);
      out += ", \"end_time\": " + jsonNumber(m.endTime);
      if (!m.error.empty()) out += ", \"error\": " + jsonQuote(m.error);
      out += "}";
    }
    out += "\n  ]\n}\n";
    atomicWriteFile(path_, out);
  }

  std::string path_;
  double start_ = 0;
  std::mutex mutex_;
  std::string fleetState_ = "running";
  std::vector<Member> members_;
  double lastWrite_ = 0;
};

}  // namespace

std::shared_ptr<const SimulationAssets> AssetCache::acquire(
    const ScenarioBundle& bundle) {
  const AssetConfig ac = AssetConfig::fromSolverConfig(bundle.solver);
  const std::uint64_t key = computeAssetHash(bundle.mesh, bundle.materials, ac);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  // Build under the lock: concurrent members requesting the same hash
  // must not duplicate the (expensive) build, and distinct hashes in one
  // sweep are rare enough that serializing them is fine.
  const double t0 = nowSeconds();
  auto assets = std::make_shared<const SimulationAssets>(
      bundle.mesh, bundle.materials, ac);
  buildSeconds_ += nowSeconds() - t0;
  ++built_;
  cache_.emplace(key, assets);
  return assets;
}

std::size_t AssetCache::built() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return built_;
}

std::size_t AssetCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

double AssetCache::buildSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buildSeconds_;
}

std::string newestCheckpoint(const std::string& prefix) {
  namespace fs = std::filesystem;
  const std::size_t slash = prefix.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : prefix.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);
  const std::string stem = base + "_ckpt_";
  const std::string ext = ".tsgck";

  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return "";

  long long bestTick = -1;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() + ext.size()) continue;
    if (name.compare(0, stem.size(), stem) != 0) continue;
    if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0) continue;
    const std::string digits =
        name.substr(stem.size(), name.size() - stem.size() - ext.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    bestTick = std::max(bestTick, std::stoll(digits));
  }
  if (bestTick < 0) return "";
  return prefix + "_ckpt_" + std::to_string(bestTick) + ext;
}

EnsembleResult runEnsemble(const EnsemblePlan& plan,
                           const EnsembleOptions& opts) {
  const double wallStart = nowSeconds();

  EnsembleResult result;
  result.members.resize(plan.members.size());
  for (std::size_t i = 0; i < plan.members.size(); ++i) {
    MemberOutcome& out = result.members[i];
    out.index = plan.members[i].index;
    out.prefix = plan.members[i].prefix;
    out.configPath = plan.members[i].configPath;
    out.overrides = plan.members[i].overrides;
  }

  // Materialize the member configs first: each file is both the member's
  // runnable input and its provenance (the scenario hash is the FNV of
  // its bytes), and a standalone `tsunamigen_cli <member.cfg>` run of the
  // same file is bitwise identical to the ensemble member.
  for (const EnsembleMember& m : plan.members) {
    atomicWriteFile(m.configPath, m.configText);
  }

  const int workers = std::max(
      1, std::min(opts.workers > 0 ? opts.workers : plan.workers,
                  static_cast<int>(plan.members.size())));
  // Captured once on the driver thread: workers inherit a fair share of
  // the ambient OpenMP width unless the run config pins `threads` itself.
  const int ambientThreads = omp_get_max_threads();

  AssetCache cache;
  FleetStatus fleet(opts.statusPath, plan);

  logInfo("ensemble_start",
          "ensemble: " + std::to_string(plan.members.size()) + " members, " +
              std::to_string(workers) + " workers",
          {logInt("members", static_cast<long long>(plan.members.size())),
           logInt("workers", workers),
           logStr("prefix", plan.prefix)});

  std::atomic<std::size_t> next{0};
  auto workerLoop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.members.size()) return;
      const EnsembleMember& m = plan.members[i];
      MemberOutcome& out = result.members[i];
      const double t0 = nowSeconds();
      fleet.memberState(static_cast<int>(i), "running");
      try {
        const ConfigFile cfg = ConfigFile::load(m.configPath);
        RunOptions o = readRunOptions(cfg);
        if (o.threads == 0 && workers > 1) {
          o.threads = std::max(1, ambientThreads / workers);
        }
        if (!opts.statusPath.empty()) {
          o.statusPath = m.prefix + "_status.json";
        }
        RunHooks hooks;
        hooks.assetProvider = [&cache](const ScenarioBundle& bundle) {
          return cache.acquire(bundle);
        };
        if (opts.autoResume) {
          hooks.resumeOverride = newestCheckpoint(m.prefix);
          out.resumed = !hooks.resumeOverride.empty();
        }
        hooks.onProgress = [&fleet, i](double t, double endTime) {
          fleet.memberProgress(static_cast<int>(i), t, endTime);
        };
        out.result = runPipeline(m.configPath, cfg, o, hooks);
        out.ok = true;
        fleet.memberState(static_cast<int>(i), "done");
      } catch (const std::exception& e) {
        out.error = e.what();
        fleet.memberState(static_cast<int>(i), "failed", out.error);
        logError("ensemble_member_failed",
                 "member " + std::to_string(i) + " failed: " + out.error,
                 {logInt("member", static_cast<long long>(i)),
                  logStr("error", out.error)});
      }
      out.wallSeconds = nowSeconds() - t0;
    }
  };

  if (workers == 1) {
    workerLoop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int w = 0; w < workers; ++w) pool.emplace_back(workerLoop);
    for (std::thread& t : pool) t.join();
  }

  result.assetsBuilt = cache.built();
  result.assetCacheHits = cache.hits();
  result.assetBuildSeconds = cache.buildSeconds();
  result.wallSeconds = nowSeconds() - wallStart;
  fleet.finish(result.allOk() ? "done" : "failed");

  logInfo("ensemble_finish",
          "ensemble: " + std::to_string(result.members.size()) +
              " members finished, " + std::to_string(result.assetsBuilt) +
              " asset builds, " + std::to_string(result.assetCacheHits) +
              " cache hits",
          {logInt("asset_builds", static_cast<long long>(result.assetsBuilt)),
           logInt("asset_hits", static_cast<long long>(result.assetCacheHits)),
           logNum("asset_build_seconds", result.assetBuildSeconds),
           logNum("wall_seconds", result.wallSeconds)});
  return result;
}

}  // namespace tsg
