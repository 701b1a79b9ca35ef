// Config-driven scenario DSL (scenario/spec):
//  * every negative path is a typed ConfigError naming the offending key
//    path -- unknown sections/keys, overlapping fault segments,
//    non-monotone subfault onsets, out-of-domain receivers and
//    nucleation patches -- never a crash, never a silent default,
//  * the built bundle carries the declared physics: kinematic ramp
//    onsets reach FaultPointInit, layered materials classify elements,
//    eta/pressure sources produce initial state,
//  * preset files reject run-level keys.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "scenario/spec.hpp"

namespace tsg {
namespace {

/// A minimal valid scenario: two-segment z axis, crust + water, one
/// rate-and-state fault segment with a ramped patch, one receiver.
/// Tests mutate it via simple string replacement or appended sections.
std::string baseConfig() {
  return
      "[scenario]\n"
      "name = dsl-test\n"
      "[[mesh.x]]\n"
      "type = uniform\nlo = -4000\nhi = 4000\ncells = 4\n"
      "[[mesh.y]]\n"
      "type = uniform\nlo = -4000\nhi = 4000\ncells = 4\n"
      "[[mesh.z]]\n"
      "type = uniform\nlo = -4000\nhi = -1000\ncells = 3\n"
      "[[mesh.z]]\n"
      "type = uniform\nlo = -1000\nhi = 0\ncells = 2\n"
      "[bathymetry]\n"
      "base_depth = 1000\n"
      "[[material]]\n"
      "name = crust\nrho = 2700\ncp = 6000\ncs = 3464\n"
      "[[material]]\n"
      "name = water\nrho = 1000\ncp = 1500\n"
      "[fault]\n"
      "law = rs\nsigma_n = -20e6\ntau_background = 11e6\n"
      "rs_a = 0.01\nrs_b = 0.014\nrs_L = 0.2\nrs_f0 = 0.6\n"
      "rs_v0 = 1e-6\nrs_fw = 0.1\nrs_vw = 0.1\nload = strike\n"
      "[[fault.segment]]\n"
      "plane = x\noffset = 0\ny_min = -3000\ny_max = 3000\n"
      "z_min = -3500\nz_max = -1500\n"
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = 0\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.5\n"
      "[[receiver]]\n"
      "name = mid\nx = 0\ny = 0\nz = -500\n";
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation target missing: " << from;
  return text.replace(pos, from.size(), to);
}

ScenarioSpec loadFromText(const std::string& text) {
  return loadScenarioSpec(ConfigFile::parse(text));
}

/// EXPECT ConfigError whose message contains `needle`.
void expectSpecError(const std::string& text, const std::string& needle) {
  try {
    loadFromText(text);
    FAIL() << "expected ConfigError containing \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ScenarioDsl, BaseConfigLoadsAndCarriesTheDeclaredPieces) {
  const ScenarioSpec spec = loadFromText(baseConfig());
  EXPECT_EQ(spec.name, "dsl-test");
  EXPECT_EQ(spec.mesh.z.size(), 2u);
  EXPECT_EQ(spec.materials.size(), 2u);
  EXPECT_TRUE(spec.materials[1].acoustic);
  ASSERT_TRUE(spec.fault.present);
  EXPECT_EQ(spec.fault.law, FrictionLawType::kRateStateFastVW);
  ASSERT_EQ(spec.fault.segments.size(), 1u);
  ASSERT_EQ(spec.fault.nucleation.size(), 1u);
  EXPECT_EQ(spec.fault.nucleation[0].dzScale, 1.0);  // vertical plane
  ASSERT_EQ(spec.receivers.size(), 1u);
  EXPECT_EQ(spec.receivers[0].name, "mid");
}

TEST(ScenarioDsl, UnknownSectionIsRejected) {
  expectSpecError(baseConfig() + "[[frobnicator]]\nx = 1\n",
                  "unknown section [frobnicator]");
  expectSpecError(baseConfig() + "[bathymetri]\nbase_depth = 1\n",
                  "unknown section [bathymetri]");
}

TEST(ScenarioDsl, UnknownKeyIsRejectedWithFullPath) {
  expectSpecError(replaced(baseConfig(), "load = strike\n",
                           "load = strike\nfrobnicate = 1\n"),
                  "unknown key fault.frobnicate");
  expectSpecError(replaced(baseConfig(), "base_depth = 1000\n",
                           "base_depth = 1000\nbathy_typo = 2\n"),
                  "unknown key bathymetry.bathy_typo");
  // Repeatable sections carry their index in the path.
  expectSpecError(baseConfig() + "[[receiver]]\nname = b\nx = 0\ny = 0\n"
                                 "z = -100\ncolour = red\n",
                  "unknown key receiver[1].colour");
}

TEST(ScenarioDsl, MissingRequiredKeyNamesThePath) {
  expectSpecError(replaced(baseConfig(), "rho = 2700\n", ""),
                  "missing required key material[0].rho");
  expectSpecError(replaced(baseConfig(), "rise_time = 0.5\n", ""),
                  "missing required key fault.nucleation[0].rise_time");
}

TEST(ScenarioDsl, AxisMustBeContiguousAndSane) {
  expectSpecError(
      replaced(baseConfig(), "lo = -1000\nhi = 0\ncells = 2\n",
               "lo = -900\nhi = 0\ncells = 2\n"),
      "mesh.z[1].lo must equal the previous segment's hi");
  expectSpecError(replaced(baseConfig(), "cells = 4\n", "cells = 0\n"),
                  "cells must be >= 1");
  const std::string noY = replaced(
      baseConfig(), "[[mesh.y]]\ntype = uniform\nlo = -4000\nhi = 4000\n"
                    "cells = 4\n", "");
  expectSpecError(noY, "missing [[mesh.y]]");
  // A graded segment needs a non-empty uniform core: uniform_lo ==
  // uniform_hi would build a zero-width cell (dt_min = 0).
  const std::string zeroCore = replaced(
      baseConfig(), "[[mesh.x]]\ntype = uniform\nlo = -4000\nhi = 4000\n"
                    "cells = 4\n",
      "[[mesh.x]]\ntype = graded\nlo = -4000\nuniform_lo = 0\n"
      "uniform_hi = 0\nhi = 4000\nh = 1000\nmax_spacing = 2000\n");
  expectSpecError(zeroCore,
                  "mesh.x[0]: need lo <= uniform_lo < uniform_hi <= hi");
}

TEST(ScenarioDsl, OverlappingFaultSegmentsAreRejected) {
  // Same plane, same offset, y windows [-3000,3000] and [2000,5000]
  // intersect: ambiguous rupture geometry.
  expectSpecError(baseConfig() + "[[fault.segment]]\nplane = x\noffset = 0\n"
                                 "y_min = 2000\ny_max = 5000\n"
                                 "z_min = -3500\nz_max = -1500\n",
                  "fault.segment[0] and fault.segment[1] overlap");
  // Disjoint y windows on the same plane are fine.
  const ScenarioSpec ok = loadFromText(
      baseConfig() + "[[fault.segment]]\nplane = x\noffset = 0\n"
                     "y_min = 3200\ny_max = 3900\n"
                     "z_min = -3500\nz_max = -1500\n");
  EXPECT_EQ(ok.fault.segments.size(), 2u);
  // Same windows on a different plane are fine too.
  const ScenarioSpec ok2 = loadFromText(
      baseConfig() + "[[fault.segment]]\nplane = x\noffset = 2000\n"
                     "y_min = -3000\ny_max = 3000\n"
                     "z_min = -3500\nz_max = -1500\n");
  EXPECT_EQ(ok2.fault.segments.size(), 2u);
}

TEST(ScenarioDsl, NonMonotoneSubfaultOnsetsAreRejected) {
  const std::string twoPatches =
      baseConfig() +
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = 2000\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.5\nonset = ONSET\n";
  // First patch has onset 0 (default); a second patch earlier than the
  // first is a data-entry error in a generated subfault sweep.
  expectSpecError(replaced(twoPatches, "onset = ONSET", "onset = -0.25"),
                  "fault.nucleation[1].onset must be >= 0");
  // Two patches out of order: the first declares onset 1.0, the second
  // 0.5 (in the base text the first patch is followed by the receiver).
  const std::string outOfOrder = replaced(
      replaced(twoPatches, "rise_time = 0.5\n[[receiver]]",
               "rise_time = 0.5\nonset = 1.0\n[[receiver]]"),
      "onset = ONSET", "onset = 0.5");
  expectSpecError(outOfOrder, "fault.nucleation[1].onset");
  expectSpecError(outOfOrder, "non-decreasing");
  // In-order onsets load fine.
  const ScenarioSpec ok =
      loadFromText(replaced(twoPatches, "onset = ONSET", "onset = 0.75"));
  ASSERT_EQ(ok.fault.nucleation.size(), 2u);
  EXPECT_EQ(ok.fault.nucleation[1].onset, 0.75);
}

TEST(ScenarioDsl, OverlappingNucleationSupportsAreRejected) {
  // Ramp support is 1.5 r = 600; centers 1000 apart < 600 + 600.
  expectSpecError(baseConfig() +
                      "[[fault.nucleation]]\n"
                      "type = ramp\ncenter_y = 1000\ncenter_z = -2500\n"
                      "radius = 400\ntau = 15e6\nrise_time = 0.5\n",
                  "fault.nucleation[0] and fault.nucleation[1] overlap");
}

TEST(ScenarioDsl, OutOfDomainNucleationCenterIsRejected) {
  expectSpecError(replaced(baseConfig(), "center_y = 0\n",
                           "center_y = 3500\n"),
                  "fault.nucleation[0].center_y (3500");
  expectSpecError(replaced(baseConfig(), "center_z = -2500\n",
                           "center_z = -3800\n"),
                  "fault.nucleation[0].center_z (-3800");
  expectSpecError(replaced(baseConfig(), "radius = 400\n",
                           "radius = 400\nsegment = 3\n"),
                  "fault.nucleation[0].segment must be in 0..0");
}

TEST(ScenarioDsl, OutOfDomainReceiverIsRejected) {
  expectSpecError(replaced(baseConfig(), "name = mid\nx = 0\ny = 0\nz = -500\n",
                           "name = mid\nx = 0\ny = 0\nz = 100\n"),
                  "receiver 'mid'");
  expectSpecError(replaced(baseConfig(), "name = mid\nx = 0\ny = 0\nz = -500\n",
                           "name = mid\nx = -9000\ny = 0\nz = -500\n"),
                  "outside the mesh box");
  expectSpecError(baseConfig() + "[[receiver]]\nname = mid\nx = 1\ny = 1\n"
                                 "z = -100\n",
                  "receiver[1].name 'mid' is already used");
}

TEST(ScenarioDsl, MaterialRulesAreEnforced) {
  // Two acoustic layers.
  expectSpecError(baseConfig() + "[[material]]\nname = air\nrho = 1\n"
                                 "cp = 340\n",
                  "at most one acoustic");
  // No solid at all (only the acoustic water layer remains).
  const std::string noSolid = replaced(
      baseConfig(),
      "[[material]]\nname = crust\nrho = 2700\ncp = 6000\ncs = 3464\n", "");
  expectSpecError(noSolid, "at least one solid");
  // bottom_z on the acoustic layer.
  expectSpecError(replaced(baseConfig(), "name = water\nrho = 1000\ncp = 1500\n",
                           "name = water\nrho = 1000\ncp = 1500\n"
                           "bottom_z = -500\n"),
                  "bottom_z is only meaningful for solid layers");
  // Layered solids must declare bottom_z top-down (decreasing).
  expectSpecError(
      replaced(baseConfig(), "[[material]]\nname = crust\nrho = 2700\n"
                             "cp = 6000\ncs = 3464\n",
               "[[material]]\nname = upper\nrho = 2600\ncp = 5500\n"
               "cs = 3200\nbottom_z = -2000\n"
               "[[material]]\nname = lower\nrho = 2900\ncp = 6500\n"
               "cs = 3700\nbottom_z = -1500\n"
               "[[material]]\nname = mantle\nrho = 3300\ncp = 8000\n"
               "cs = 4500\n"),
      "bottom_z must decrease");
}

TEST(ScenarioDsl, SourceRulesAreEnforced) {
  // pressure_gaussian needs an acoustic layer to live in.
  const std::string solidOnly = replaced(
      baseConfig(), "[[material]]\nname = water\nrho = 1000\ncp = 1500\n", "");
  expectSpecError(solidOnly + "[[source]]\ntype = pressure_gaussian\n"
                              "center_x = 0\ncenter_y = 0\ncenter_z = -500\n"
                              "amplitude = 1e4\nsigma = 200\n",
                  "pressure_gaussian requires an acoustic");
  // eta_gaussian needs the gravity free surface.
  expectSpecError(baseConfig() + "[boundary]\ntop = free\n"
                                 "[[source]]\ntype = eta_gaussian\n"
                                 "center_x = 0\ncenter_y = 0\n"
                                 "amplitude = 1\nsigma = 500\n",
                  "eta_gaussian requires boundary.top = gravity");
}

TEST(ScenarioDsl, FaultSectionRules) {
  expectSpecError(replaced(baseConfig(), "law = rs\n", "law = plastic\n"),
                  "fault.law must be lsw | rs");
  expectSpecError(replaced(baseConfig(), "load = strike\n", "load = sideways\n"),
                  "fault.load must be updip | strike");
  // Segments without a [fault] section are a layering error.
  const std::string noFault = replaced(
      replaced(baseConfig(),
               "[fault]\n"
               "law = rs\nsigma_n = -20e6\ntau_background = 11e6\n"
               "rs_a = 0.01\nrs_b = 0.014\nrs_L = 0.2\nrs_f0 = 0.6\n"
               "rs_v0 = 1e-6\nrs_fw = 0.1\nrs_vw = 0.1\nload = strike\n",
               ""),
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = 0\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.5\n",
      "");
  expectSpecError(noFault, "require a [fault] section");
}

// The tentpole's kinematic guarantee: staggered onsets declared in the
// config arrive in FaultPointInit as nucleationStartTime, per patch.
TEST(ScenarioDsl, KinematicOnsetsReachFaultPointInit) {
  const std::string text = replaced(
      baseConfig(),
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = 0\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.5\n",
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = -2000\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.5\nonset = 0\n"
      "[[fault.nucleation]]\n"
      "type = ramp\ncenter_y = 2000\ncenter_z = -2500\nradius = 400\n"
      "tau = 15e6\nrise_time = 0.4\nonset = 1.25\n");
  const ScenarioBundle bundle = buildScenario(loadFromText(text), 2);
  ASSERT_TRUE(static_cast<bool>(bundle.faultInit));
  const Vec3 n{1, 0, 0}, t1{0, 1, 0}, t2{0, 0, 1};
  // At the second patch's center: its onset and rise time.
  FaultPointInit late = bundle.faultInit({0, 2000, -2500}, n, t1, t2);
  EXPECT_EQ(late.nucleationRiseTime, 0.4);
  EXPECT_EQ(late.nucleationStartTime, 1.25);
  EXPECT_NE(late.tauNucl1, 0.0);
  // At the first: onset 0.
  FaultPointInit early = bundle.faultInit({0, -2000, -2500}, n, t1, t2);
  EXPECT_EQ(early.nucleationRiseTime, 0.5);
  EXPECT_EQ(early.nucleationStartTime, 0.0);
  // Between the patches (outside both supports): no forcing at all.
  FaultPointInit off = bundle.faultInit({0, 0, -2500}, n, t1, t2);
  EXPECT_EQ(off.nucleationRiseTime, 0.0);
  EXPECT_EQ(off.tauNucl1, 0.0);
  // Background load is carried everywhere (strike, sign -1, n[0] > 0).
  EXPECT_EQ(off.tau10, 11e6 * -1.0);
}

TEST(ScenarioDsl, LayeredMaterialsClassifyElements) {
  const std::string text = replaced(
      baseConfig(),
      "[[material]]\nname = crust\nrho = 2700\ncp = 6000\ncs = 3464\n",
      "[[material]]\nname = upper\nrho = 2600\ncp = 5500\ncs = 3200\n"
      "bottom_z = -2000\n"
      "[[material]]\nname = lower\nrho = 3300\ncp = 8000\ncs = 4500\n");
  const ScenarioBundle bundle = buildScenario(loadFromText(text), 2);
  ASSERT_EQ(bundle.materials.size(), 3u);
  std::vector<int> count(3, 0);
  for (const auto& e : bundle.mesh.elements) {
    ASSERT_GE(e.material, 0);
    ASSERT_LT(e.material, 3);
    ++count[e.material];
  }
  // All three layers are populated: water above z = -1000, upper crust
  // to -2000, lower crust below.
  EXPECT_GT(count[0], 0) << "upper crust";
  EXPECT_GT(count[1], 0) << "lower crust";
  EXPECT_GT(count[2], 0) << "water";
}

TEST(ScenarioDsl, EtaSourceBuildsInitialSurface) {
  const std::string text =
      replaced(baseConfig() + "[[source]]\ntype = eta_gaussian\n"
                              "center_x = 0\ncenter_y = 0\n"
                              "amplitude = 2\nsigma = 1000\n",
               // Drop the fault so the scenario is pure gravity.
               "[fault]\n"
               "law = rs\nsigma_n = -20e6\ntau_background = 11e6\n"
               "rs_a = 0.01\nrs_b = 0.014\nrs_L = 0.2\nrs_f0 = 0.6\n"
               "rs_v0 = 1e-6\nrs_fw = 0.1\nrs_vw = 0.1\nload = strike\n"
               "[[fault.segment]]\n"
               "plane = x\noffset = 0\ny_min = -3000\ny_max = 3000\n"
               "z_min = -3500\nz_max = -1500\n"
               "[[fault.nucleation]]\n"
               "type = ramp\ncenter_y = 0\ncenter_z = -2500\nradius = 400\n"
               "tau = 15e6\nrise_time = 0.5\n",
               "");
  const ScenarioBundle bundle = buildScenario(loadFromText(text), 2);
  EXPECT_FALSE(static_cast<bool>(bundle.faultInit));
  ASSERT_TRUE(static_cast<bool>(bundle.initialEta));
  EXPECT_EQ(bundle.initialEta(0, 0), 2.0);
  EXPECT_LT(bundle.initialEta(3000, 0), 0.1);
}

TEST(ScenarioDsl, PresetFilesRejectRunLevelKeys) {
  const std::string path = "dsl_preset_runkeys.cfg";
  {
    std::ofstream out(path);
    out << "end_time = 1.0\n" << baseConfig();
  }
  try {
    loadPresetScenario(path, 2);
    FAIL() << "run-level key in preset accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("run-level key 'end_time'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  // A run config with no sections at all is not a preset.
  const std::string runOnly = "dsl_preset_runonly.cfg";
  {
    std::ofstream out(runOnly);
    out << "end_time = 1.0\nscenario = quickstart\n";
  }
  EXPECT_THROW(loadPresetScenario(runOnly, 2), ConfigError);
  std::remove(runOnly.c_str());
}

}  // namespace
}  // namespace tsg
