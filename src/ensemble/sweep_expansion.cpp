#include "ensemble/sweep_expansion.hpp"

#include <cctype>
#include <set>

#include "common/errors.hpp"
#include "telemetry/logging.hpp"

namespace tsg {

namespace {

/// Split a comma-separated value list into trimmed raw strings.  Values
/// stay textual -- they are substituted into the member config verbatim,
/// so sweeping a string key ("solver.friction_law = lsw, rate_state")
/// works the same as sweeping a number.
std::vector<std::string> splitValues(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::size_t lo = start;
    std::size_t hi = comma;
    while (lo < hi && std::isspace(static_cast<unsigned char>(text[lo]))) ++lo;
    while (hi > lo && std::isspace(static_cast<unsigned char>(text[hi - 1]))) --hi;
    if (hi > lo) out.push_back(text.substr(lo, hi - lo));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return out;
}

/// Keys the driver owns per member; sweeping them would break member
/// isolation (colliding outputs) or provenance (resume paths baked into
/// the hashed config text).
bool reservedKey(const std::string& key) {
  return key == "output_prefix" || key == "resume";
}

/// Warn about the keys of a driver section that nothing read, named by
/// their qualified path (`ensemble.workrs`), as the run config does for
/// its own keys.
void warnUnusedKeys(const ConfigSection& s) {
  for (const std::string& key : s.unusedKeys()) {
    const std::string path = s.path() + "." + key;
    logWarn("config_unknown_key", "unknown configuration key '" + path + "'",
            {logStr("key", path)});
  }
}

}  // namespace

EnsemblePlan expandSweep(const ConfigFile& cfg) {
  EnsemblePlan plan;
  plan.prefix = cfg.getString("output_prefix", "run");

  if (cfg.hasSection("ensemble")) {
    ConfigSection ens = cfg.uniqueSection("ensemble");
    plan.workers = ens.getInt("workers", 1);
    if (plan.workers < 1) {
      throw ConfigError("ensemble.workers must be >= 1, got " +
                        std::to_string(plan.workers));
    }
    const std::string mode = ens.getString("mode", "cartesian");
    if (mode == "zip") {
      plan.zip = true;
    } else if (mode != "cartesian") {
      throw ConfigError("ensemble.mode must be 'cartesian' or 'zip', got '" +
                        mode + "'");
    }
    warnUnusedKeys(ens);
  }

  std::set<std::string> seenKeys;
  for (const ConfigSection& s : cfg.sections("sweep")) {
    SweepAxis axis;
    axis.key = s.requireString("key");
    if (axis.key.empty()) {
      throw ConfigError(s.path() + ".key must not be empty");
    }
    if (reservedKey(axis.key)) {
      throw ConfigError(s.path() + ": key '" + axis.key +
                        "' is managed per member by the ensemble driver and "
                        "cannot be swept");
    }
    if (!seenKeys.insert(axis.key).second) {
      throw ConfigError(s.path() + ": duplicate sweep key '" + axis.key + "'");
    }
    axis.values = splitValues(s.requireString("values"));
    if (axis.values.empty()) {
      throw ConfigError(s.path() + ".values must list at least one value");
    }
    warnUnusedKeys(s);
    plan.axes.push_back(std::move(axis));
  }

  // Member count and per-member axis assignment.
  std::size_t count = 1;
  if (plan.zip) {
    if (plan.axes.empty()) {
      throw ConfigError("ensemble.mode = zip requires at least one [[sweep]]");
    }
    count = plan.axes.front().values.size();
    for (const SweepAxis& a : plan.axes) {
      if (a.values.size() != count) {
        throw ConfigError("ensemble.mode = zip requires equal-length axes: '" +
                          plan.axes.front().key + "' has " +
                          std::to_string(count) + " values but '" + a.key +
                          "' has " + std::to_string(a.values.size()));
      }
    }
  } else {
    for (const SweepAxis& a : plan.axes) count *= a.values.size();
  }

  plan.members.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    EnsembleMember m;
    m.index = static_cast<int>(k);
    m.prefix = plan.prefix + "_member_" + std::to_string(k);
    m.configPath = m.prefix + ".cfg";

    // Decode member k into one value index per axis (cartesian: mixed
    // radix with the LAST axis fastest; zip: same index everywhere).
    if (plan.zip) {
      for (const SweepAxis& a : plan.axes) m.overrides[a.key] = a.values[k];
    } else {
      std::size_t rem = k;
      for (std::size_t ai = plan.axes.size(); ai-- > 0;) {
        const SweepAxis& a = plan.axes[ai];
        m.overrides[a.key] = a.values[rem % a.values.size()];
        rem /= a.values.size();
      }
    }

    // Render the self-contained member config.  The sweep overrides are
    // validated here (a key addressing no section is a hard ConfigError
    // at expansion time, before any member runs).
    std::map<std::string, std::string> overrides = m.overrides;
    overrides["output_prefix"] = m.prefix;
    m.configText = cfg.renderWithOverrides(overrides, {"sweep", "ensemble"});
    plan.members.push_back(std::move(m));
  }
  return plan;
}

}  // namespace tsg
