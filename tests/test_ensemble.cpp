// Ensemble engine (ensemble/sweep_expansion, ensemble_runner,
// hazard_aggregator) and the [fault] slip_file kinematic import:
//  * sweep expansion is a pure, deterministic function of the base
//    config -- cartesian cross products enumerate with the LAST axis
//    fastest, zip pairs element-wise, and every malformed sweep
//    (duplicate keys, reserved keys, empty value lists, keys addressing
//    no section) is a typed ConfigError at expansion time,
//  * an ensemble member is bitwise identical to a standalone
//    `tsunamigen_cli <member.cfg>` run of the same expanded config --
//    receiver CSV bytes and all provenance hashes -- including after a
//    checkpoint-resume restart,
//  * structurally identical members share ONE SimulationAssets build,
//  * slip CSVs append validated ramp patches after the inline
//    [[fault.nucleation]] sections and inherit every inline invariant.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/hazard_aggregator.hpp"
#include "ensemble/sweep_expansion.hpp"
#include "io/atomic_file.hpp"
#include "runner/run_pipeline.hpp"
#include "scenario/spec.hpp"

#ifndef TSG_PRESET_DIR
#error "TSG_PRESET_DIR must point at examples/presets (set in CMakeLists)"
#endif

namespace tsg {
namespace {

namespace fs = std::filesystem;

/// EXPECT that `fn` throws a ConfigError whose message contains `needle`.
template <typename Fn>
void expectConfigError(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ConfigError containing \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "ConfigError message \"" << e.what() << "\" does not mention \""
        << needle << "\"";
  }
}

std::string quickstartPreset() {
  return std::string(TSG_PRESET_DIR) + "/quickstart.cfg";
}

/// A preset-based sweep base config (only top-level run keys are
/// sweepable without inline sections).
std::string sweepBase() {
  return "preset = " + quickstartPreset() +
         "\n"
         "degree = 2\n"
         "end_time = 0.3\n"
         "vtk_output = false\n"
         "snapshots = 1\n"
         "output_prefix = sw\n";
}

// ---------------------------------------------------------------- sweeps

TEST(SweepExpansion, CartesianEnumeratesLastAxisFastest) {
  const std::string text = sweepBase() +
                           "[ensemble]\nworkers = 3\n"
                           "[[sweep]]\nkey = kernel_path\n"
                           "values = reference, batched\n"
                           "[[sweep]]\nkey = batch_size\n"
                           "values = 0, 8, 16\n";
  const EnsemblePlan plan = expandSweep(ConfigFile::parse(text));
  EXPECT_EQ(plan.prefix, "sw");
  EXPECT_EQ(plan.workers, 3);
  EXPECT_FALSE(plan.zip);
  ASSERT_EQ(plan.axes.size(), 2u);
  EXPECT_EQ(plan.axes[0].key, "kernel_path");
  EXPECT_EQ(plan.axes[1].values.size(), 3u);
  ASSERT_EQ(plan.members.size(), 6u);

  // Last axis fastest: kernel_path flips every 3 members.
  const char* expectedKernel[] = {"reference", "reference", "reference",
                                  "batched",   "batched",   "batched"};
  const char* expectedBatch[] = {"0", "8", "16", "0", "8", "16"};
  for (int k = 0; k < 6; ++k) {
    const EnsembleMember& m = plan.members[k];
    EXPECT_EQ(m.index, k);
    EXPECT_EQ(m.prefix, "sw_member_" + std::to_string(k));
    EXPECT_EQ(m.configPath, "sw_member_" + std::to_string(k) + ".cfg");
    EXPECT_EQ(m.overrides.at("kernel_path"), expectedKernel[k]);
    EXPECT_EQ(m.overrides.at("batch_size"), expectedBatch[k]);
    // The rendered member is self-contained: overrides and the rewritten
    // prefix are in the text, the driver sections are stripped.
    EXPECT_NE(m.configText.find("output_prefix = " + m.prefix),
              std::string::npos);
    EXPECT_NE(m.configText.find(std::string("kernel_path = ") +
                                expectedKernel[k]),
              std::string::npos);
    EXPECT_EQ(m.configText.find("[sweep]"), std::string::npos);
    EXPECT_EQ(m.configText.find("[ensemble]"), std::string::npos);
  }

  // Expansion is deterministic: same input, same bytes.
  const EnsemblePlan again = expandSweep(ConfigFile::parse(text));
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(plan.members[k].configText, again.members[k].configText);
  }
}

TEST(SweepExpansion, NoSweepSectionsExpandToOneMember) {
  const EnsemblePlan plan = expandSweep(ConfigFile::parse(sweepBase()));
  ASSERT_EQ(plan.members.size(), 1u);
  EXPECT_TRUE(plan.axes.empty());
  EXPECT_TRUE(plan.members[0].overrides.empty());
  EXPECT_EQ(plan.members[0].prefix, "sw_member_0");
}

TEST(SweepExpansion, ZipPairsAxesElementWise) {
  const std::string text = sweepBase() +
                           "[ensemble]\nmode = zip\n"
                           "[[sweep]]\nkey = kernel_path\n"
                           "values = reference, batched\n"
                           "[[sweep]]\nkey = end_time\n"
                           "values = 0.2, 0.3\n";
  const EnsemblePlan plan = expandSweep(ConfigFile::parse(text));
  EXPECT_TRUE(plan.zip);
  ASSERT_EQ(plan.members.size(), 2u);
  EXPECT_EQ(plan.members[0].overrides.at("kernel_path"), "reference");
  EXPECT_EQ(plan.members[0].overrides.at("end_time"), "0.2");
  EXPECT_EQ(plan.members[1].overrides.at("kernel_path"), "batched");
  EXPECT_EQ(plan.members[1].overrides.at("end_time"), "0.3");
}

TEST(SweepExpansion, ZipRejectsUnequalAxisLengths) {
  const std::string text = sweepBase() +
                           "[ensemble]\nmode = zip\n"
                           "[[sweep]]\nkey = kernel_path\n"
                           "values = reference, batched\n"
                           "[[sweep]]\nkey = end_time\n"
                           "values = 0.2, 0.3, 0.4\n";
  expectConfigError([&] { expandSweep(ConfigFile::parse(text)); },
                    "equal-length");
}

TEST(SweepExpansion, RejectsDuplicateSweepKeys) {
  const std::string text = sweepBase() +
                           "[[sweep]]\nkey = kernel_path\n"
                           "values = reference\n"
                           "[[sweep]]\nkey = kernel_path\n"
                           "values = batched\n";
  expectConfigError([&] { expandSweep(ConfigFile::parse(text)); },
                    "duplicate");
}

TEST(SweepExpansion, RejectsReservedKeys) {
  for (const std::string reserved : {"output_prefix", "resume"}) {
    const std::string text = sweepBase() + "[[sweep]]\nkey = " + reserved +
                             "\nvalues = a, b\n";
    expectConfigError([&] { expandSweep(ConfigFile::parse(text)); },
                      reserved);
  }
}

TEST(SweepExpansion, RejectsEmptyValueLists) {
  const std::string text =
      sweepBase() + "[[sweep]]\nkey = kernel_path\nvalues = \n";
  expectConfigError([&] { expandSweep(ConfigFile::parse(text)); },
                    "values");
}

TEST(SweepExpansion, RejectsKeysAddressingNoSection) {
  // fault.* is only sweepable when the scenario is inline: this base is
  // preset-based, so there is no [fault] section to address.
  const std::string text = sweepBase() +
                           "[[sweep]]\nkey = fault.rs_vw\n"
                           "values = 0.1, 0.2\n";
  expectConfigError([&] { expandSweep(ConfigFile::parse(text)); },
                    "fault.rs_vw");
}

// ------------------------------------------------------------- slip_file

/// Minimal inline scenario with one inline ramp patch, for slip CSV
/// tests.  `slipPath` is injected as [fault] slip_file.
std::string slipScenario(const std::string& slipPath) {
  return "[scenario]\nname = slip-test\n"
         "[[mesh.x]]\ntype = uniform\nlo = -4000\nhi = 4000\ncells = 4\n"
         "[[mesh.y]]\ntype = uniform\nlo = -4000\nhi = 4000\ncells = 4\n"
         "[[mesh.z]]\ntype = uniform\nlo = -4000\nhi = -1000\ncells = 3\n"
         "[[mesh.z]]\ntype = uniform\nlo = -1000\nhi = 0\ncells = 2\n"
         "[bathymetry]\nbase_depth = 1000\n"
         "[[material]]\nname = crust\nrho = 2700\ncp = 6000\ncs = 3464\n"
         "[[material]]\nname = water\nrho = 1000\ncp = 1500\n"
         "[fault]\n"
         "law = rs\nsigma_n = -20e6\ntau_background = 11e6\n"
         "rs_a = 0.01\nrs_b = 0.014\nrs_L = 0.2\nrs_f0 = 0.6\n"
         "rs_v0 = 1e-6\nrs_fw = 0.1\nrs_vw = 0.1\nload = strike\n"
         "slip_file = " +
         slipPath +
         "\n"
         "[[fault.segment]]\n"
         "plane = x\noffset = 0\ny_min = -3000\ny_max = 3000\n"
         "z_min = -3500\nz_max = -1500\n"
         "[[fault.nucleation]]\n"
         "type = ramp\ncenter_y = 0\ncenter_z = -2500\nradius = 400\n"
         "tau = 15e6\nrise_time = 0.5\n"
         "[[receiver]]\nname = mid\nx = 0\ny = 0\nz = -500\n";
}

class SlipFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("tsg_slipfile_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string writeCsv(const std::string& name, const std::string& body) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << body;
    return p.string();
  }

  fs::path dir_;
};

TEST_F(SlipFileTest, AppendsValidatedRampsAfterInlinePatches) {
  const std::string csv = writeCsv(
      "good.csv",
      "# comment line\n"
      "center_y,center_z,radius,tau,rise_time,onset,segment\n"
      "1500,-2500,200,12e6,0.4,1.0,0\n"
      "\n"
      "-1500,-2500,200,13e6,0.4,2.0,0\n");
  const ScenarioSpec spec =
      loadScenarioSpec(ConfigFile::parse(slipScenario(csv)));
  ASSERT_EQ(spec.fault.nucleation.size(), 3u);  // 1 inline + 2 CSV
  const NucleationSpec& a = spec.fault.nucleation[1];
  EXPECT_EQ(a.type, NucleationSpec::Type::kRamp);
  EXPECT_DOUBLE_EQ(a.centerY, 1500);
  EXPECT_DOUBLE_EQ(a.tau, 12e6);
  EXPECT_DOUBLE_EQ(a.riseTime, 0.4);
  EXPECT_DOUBLE_EQ(a.onset, 1.0);
  EXPECT_DOUBLE_EQ(spec.fault.nucleation[2].onset, 2.0);
}

TEST_F(SlipFileTest, SegmentColumnIsOptional) {
  const std::string csv =
      writeCsv("noseg.csv",
               "center_y,center_z,radius,tau,rise_time,onset\n"
               "1500,-2500,200,12e6,0.4,1.0\n");
  const ScenarioSpec spec =
      loadScenarioSpec(ConfigFile::parse(slipScenario(csv)));
  ASSERT_EQ(spec.fault.nucleation.size(), 2u);
  EXPECT_EQ(spec.fault.nucleation[1].segment, 0);
}

TEST_F(SlipFileTest, RejectsBadInput) {
  const std::string header =
      "center_y,center_z,radius,tau,rise_time,onset,segment\n";
  const struct {
    const char* name;
    std::string body;
    const char* needle;
  } cases[] = {
      {"missing.csv", "", "cannot open"},
      {"badheader.csv", "y,z,radius,tau,rise_time,onset\n1,2,3,4,5,6\n",
       "header column 1"},
      {"garbage.csv", header + "1500,-2500,200,NOTANUMBER,0.4,1.0,0\n",
       "tau"},
      {"shortrow.csv", header + "1500,-2500,200,12e6,0.4\n", "fields"},
      {"regress.csv",
       header + "1500,-2500,200,12e6,0.4,2.0,0\n"
                "-1500,-2500,200,12e6,0.4,1.0,0\n",
       "non-decreasing"},
      {"window.csv", header + "9999,-2500,200,12e6,0.4,1.0,0\n",
       "y window"},
      {"badseg.csv", header + "1500,-2500,200,12e6,0.4,1.0,7\n",
       "segment"},
      {"norows.csv", header + "# only comments\n", "no sub-event rows"},
  };
  for (const auto& c : cases) {
    std::string path = dir_ / c.name;
    if (std::string(c.name) != "missing.csv") {
      path = writeCsv(c.name, c.body);
    }
    expectConfigError(
        [&] { loadScenarioSpec(ConfigFile::parse(slipScenario(path))); },
        c.needle);
  }
}

TEST_F(SlipFileTest, CsvPatchesJoinTheOverlapScan) {
  // A CSV patch right on top of the inline one: support radii
  // 1.5*(400+300) overlap at distance 500.
  const std::string csv =
      writeCsv("overlap.csv",
               "center_y,center_z,radius,tau,rise_time,onset\n"
               "500,-2500,300,12e6,0.4,1.0\n");
  expectConfigError(
      [&] { loadScenarioSpec(ConfigFile::parse(slipScenario(csv))); },
      "overlap");
}

// -------------------------------------------------- ensemble equivalence

/// The acceptance property of the whole refactor: an ensemble member --
/// running against SHARED immutable assets, inside a worker pool -- is
/// bitwise identical to a standalone pipeline run of its expanded member
/// config, and stays so across a checkpoint-resume restart.
TEST(EnsembleEngine, MemberMatchesStandaloneRunAndSurvivesResume) {
  const fs::path dir = "tsg_ensemble_equiv";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string base =
      "preset = " + quickstartPreset() +
      "\n"
      "degree = 2\n"
      "end_time = 0.3\n"
      "vtk_output = false\n"
      "snapshots = 1\n"
      "checkpoint_interval = 0.1\n"
      "output_prefix = " +
      (dir / "ens").string() +
      "\n"
      "[ensemble]\nworkers = 2\n"
      "[[sweep]]\nkey = kernel_path\nvalues = reference, batched\n";

  const EnsemblePlan plan = expandSweep(ConfigFile::parse(base));
  ASSERT_EQ(plan.members.size(), 2u);

  EnsembleOptions opts;
  opts.statusPath = (dir / "fleet.json").string();
  const EnsembleResult first = runEnsemble(plan, opts);
  ASSERT_TRUE(first.allOk())
      << (first.members.empty() ? "no members" : first.members[0].error);

  // kernel_path is non-structural: both members attach to ONE build.
  EXPECT_EQ(first.assetsBuilt, 1u);
  EXPECT_EQ(first.assetCacheHits, 1u);

  // Fleet roll-up reached its terminal state with both members done.
  const std::string fleet = readFileBytes(opts.statusPath);
  EXPECT_NE(fleet.find("\"schema\": \"tsg-status-1\""), std::string::npos);
  EXPECT_NE(fleet.find("\"members_done\": 2"), std::string::npos);

  // The hazard surface aggregates both members and carries provenance.
  const std::string hazard = renderHazardJson(plan, first);
  EXPECT_NE(hazard.find("\"schema\": \"tsg-hazard-1\""), std::string::npos);
  EXPECT_NE(hazard.find("\"members_ok\": 2"), std::string::npos);
  EXPECT_NE(hazard.find("kernel_path"), std::string::npos);

  // Stash the ensemble's receiver bytes, then re-run member 0 through the
  // standalone pipeline (private asset build, no pool) and compare.
  const std::vector<std::string> receiverNames = {"water", "crust"};
  std::map<std::string, std::string> ensembleBytes;
  for (const auto& r : receiverNames) {
    for (const auto& m : plan.members) {
      const std::string path = m.prefix + "_receiver_" + r + ".csv";
      ensembleBytes[path] = readFileBytes(path);
    }
  }

  const EnsembleMember& m0 = plan.members[0];
  const ConfigFile memberCfg = ConfigFile::load(m0.configPath);
  const RunOptions memberOpts = readRunOptions(memberCfg);
  const RunResult standalone = runPipeline(m0.configPath, memberCfg,
                                           memberOpts);

  const MemberOutcome& o0 = first.members[0];
  EXPECT_EQ(standalone.configHash, o0.result.configHash);
  EXPECT_EQ(standalone.assetHash, o0.result.assetHash);
  EXPECT_EQ(standalone.scenarioHash, o0.result.scenarioHash);
  EXPECT_EQ(standalone.simulatedTime, o0.result.simulatedTime);
  EXPECT_EQ(standalone.elementUpdates, o0.result.elementUpdates);
  for (const auto& r : receiverNames) {
    const std::string path = m0.prefix + "_receiver_" + r + ".csv";
    EXPECT_EQ(readFileBytes(path), ensembleBytes.at(path))
        << "standalone rewrite of " << path
        << " differs from the ensemble run";
  }

  // Resume leg: wipe the receiver CSVs (checkpoints remain) and re-run.
  // Auto-resume restarts every member from its newest checkpoint and must
  // reproduce the exact same receiver bytes.
  for (const auto& [path, bytes] : ensembleBytes) {
    (void)bytes;
    fs::remove(path);
  }
  const EnsembleResult second = runEnsemble(plan, opts);
  ASSERT_TRUE(second.allOk());
  for (const auto& m : second.members) {
    EXPECT_TRUE(m.resumed) << "member " << m.index
                           << " had checkpoints but did not resume";
  }
  for (const auto& [path, bytes] : ensembleBytes) {
    EXPECT_EQ(readFileBytes(path), bytes)
        << "resumed rewrite of " << path << " differs from the first run";
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace tsg
