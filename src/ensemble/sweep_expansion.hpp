#pragma once

// Sweep expansion: turn one base run config with [[sweep]] sections into
// N fully-expanded member configs.
//
//   output_prefix = palu_sweep          # becomes the ensemble prefix
//   preset = examples/presets/palu_supershear.cfg
//   end_time = 40
//
//   [ensemble]                          # optional driver settings
//   workers = 4                         # concurrent members
//   mode = cartesian                    # cartesian (default) | zip
//
//   [[sweep]]
//   key = fault.nucleation[0].tau       # longest-section-prefix address
//   values = 2.0e6, 2.5e6, 3.0e6
//
//   [[sweep]]
//   key = solver.friction_law
//   values = lsw, rate_state
//
// `cartesian` expands the cross product of all axes (last axis fastest);
// `zip` pairs the axes element-wise and requires equal lengths.  Each
// member is the base config with the [[sweep]]/[ensemble] sections
// stripped, the axis values applied, and output_prefix rewritten to
// `<prefix>_member_<k>` -- rendered canonically, so the member config's
// bytes (and hence its scenario hash) are a deterministic function of
// the base config and the member index.  Duplicate sweep keys, empty
// value lists, sweeping reserved keys (output_prefix, resume), and keys
// that address no section in the base file are all hard ConfigErrors.
// A key of [ensemble] or [[sweep]] that the expansion does not read only
// warns `config_unknown_key`, naming it by its qualified path
// (`ensemble.workrs`, `sweep[1].valuse`), like an unread run-config key.

#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace tsg {

struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

struct EnsembleMember {
  int index = -1;
  /// The axis assignments of this member (sweep key -> value text).
  std::map<std::string, std::string> overrides;
  /// Fully rendered member config text (self-contained run config).
  std::string configText;
  /// Where the driver writes it: <prefix>_member_<k>.cfg.
  std::string configPath;
  /// The member's output prefix: <prefix>_member_<k>.
  std::string prefix;
};

struct EnsemblePlan {
  std::string prefix;  // base output_prefix of the sweep config
  int workers = 1;
  bool zip = false;  // cartesian otherwise
  std::vector<SweepAxis> axes;
  std::vector<EnsembleMember> members;
};

/// Expand a sweep config into the full member list (pure; writes no
/// files).  A config with no [[sweep]] sections expands to one member.
EnsemblePlan expandSweep(const ConfigFile& cfg);

}  // namespace tsg
