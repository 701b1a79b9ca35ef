// Preset-equivalence harness (the scenario-DSL acceptance criterion):
// each shipped preset under examples/presets/ must reproduce its
// compiled-in ancestor BITWISE -- receiver CSVs byte-compare equal and
// the full DOF vectors memcmp equal -- across kernel backends and
// OpenMP thread counts.  The registry builtins are the golden legacy
// builders (scenario/registry.cpp keeps them verbatim for one release);
// the presets go through ConfigFile -> ScenarioSpec -> buildScenario.
// The two genuinely new config-only workloads (kinematic_subfault,
// seamount_hump) have no ancestor; they are pinned for determinism and
// basic physics instead.

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "legacy_scenarios.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "solver/simulation.hpp"

#ifndef TSG_PRESET_DIR
#error "TSG_PRESET_DIR must point at examples/presets (set in CMakeLists)"
#endif

namespace tsg {
namespace {

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

std::string presetPath(const std::string& name) {
  return std::string(TSG_PRESET_DIR) + "/" + name + ".cfg";
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Build and advance a bundle three macro cycles in deterministic mode
/// on the given backend / thread count.
std::unique_ptr<Simulation> runBundle(ScenarioBundle bundle, KernelPath path,
                                      int threads) {
  omp_set_num_threads(threads);
  bundle.solver.deterministic = true;
  bundle.solver.kernelPath = path;
  auto sim = makeSimulation(bundle);
  sim->advanceTo(2.999 * sim->macroDt());
  return sim;
}

/// The equivalence contract: receiver series (in memory AND as CSV
/// bytes), the full modal DOF vector, sea-surface eta, seafloor uplift,
/// and the fault state summary all bitwise equal.
void expectBitwiseEqual(Simulation& a, Simulation& b, const std::string& tag) {
  ASSERT_EQ(a.numReceivers(), b.numReceivers()) << tag;
  for (int r = 0; r < a.numReceivers(); ++r) {
    const Receiver& ra = a.receiver(r);
    const Receiver& rb = b.receiver(r);
    EXPECT_EQ(ra.name, rb.name) << tag;
    ASSERT_EQ(ra.samples.size(), rb.samples.size()) << tag;
    ASSERT_FALSE(ra.samples.empty()) << tag;
    for (std::size_t i = 0; i < ra.samples.size(); ++i) {
      ASSERT_EQ(ra.times[i], rb.times[i]) << tag << " sample " << i;
      ASSERT_EQ(0, std::memcmp(&ra.samples[i], &rb.samples[i],
                               sizeof(ra.samples[i])))
          << tag << " receiver " << ra.name << " sample " << i;
    }
    const std::string pa = "preset_eq_a_" + ra.name + ".csv";
    const std::string pb = "preset_eq_b_" + rb.name + ".csv";
    ra.writeCsv(pa);
    rb.writeCsv(pb);
    const std::string bytes = fileBytes(pa);
    EXPECT_FALSE(bytes.empty()) << tag;
    EXPECT_EQ(bytes, fileBytes(pb)) << tag << " receiver " << ra.name;
    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }
  ASSERT_EQ(a.dofsData().size(), b.dofsData().size()) << tag;
  EXPECT_EQ(0, std::memcmp(a.dofsData().data(), b.dofsData().data(),
                           a.dofsData().size() * sizeof(real)))
      << tag << " DOF vectors differ";
  const auto sa = a.seaSurface();
  const auto sb = b.seaSurface();
  ASSERT_EQ(sa.size(), sb.size()) << tag;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].eta, sb[i].eta) << tag << " eta " << i;
  }
  const auto fa = a.seafloor();
  const auto fb = b.seafloor();
  ASSERT_EQ(fa.size(), fb.size()) << tag;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i].uplift, fb[i].uplift) << tag << " uplift " << i;
  }
  ASSERT_EQ(a.fault() != nullptr, b.fault() != nullptr) << tag;
  if (a.fault() != nullptr) {
    EXPECT_EQ(a.fault()->maxSlipRate(), b.fault()->maxSlipRate()) << tag;
  }
}

void expectPresetMatchesBuiltin(const std::string& name, KernelPath path,
                                int threads) {
  ThreadCountGuard guard;
  const int degree = 2;
  const auto legacyBundle = [&]() -> ScenarioBundle {
    if (name == "quickstart") return legacyQuickstartBundle(degree);
    if (name == "megathrust") return legacyMegathrustBundle(degree);
    if (name == "palu") return legacyPaluBundle(degree);
    throw std::logic_error("no legacy fixture for scenario '" + name + "'");
  };
  auto legacy = runBundle(legacyBundle(), path, threads);
  auto preset =
      runBundle(loadPresetScenario(presetPath(name), degree), path, threads);
  const std::string tag = name + "/" + kernelPathName(path) + "/t" +
                          std::to_string(threads);
  ASSERT_EQ(legacy->macroDt(), preset->macroDt()) << tag;
  expectBitwiseEqual(*legacy, *preset, tag);
}

// Full backend x thread matrix on the cheapest scenario.
TEST(PresetEquivalence, QuickstartMatchesBuiltinAcrossBackendsAndThreads) {
  for (const KernelPath path : {KernelPath::kReference, KernelPath::kBatched}) {
    for (const int threads : {1, 4}) {
      expectPresetMatchesBuiltin("quickstart", path, threads);
    }
  }
}

// Dynamic rupture + LTS + cohesion taper + 45-degree dipping segment.
TEST(PresetEquivalence, MegathrustMatchesBuiltinBothThreadCounts) {
  expectPresetMatchesBuiltin("megathrust", KernelPath::kBatched, 1);
  expectPresetMatchesBuiltin("megathrust", KernelPath::kBatched, 4);
}

TEST(PresetEquivalence, MegathrustMatchesBuiltinOnReferencePath) {
  expectPresetMatchesBuiltin("megathrust", KernelPath::kReference, 4);
}

// Rate-and-state friction, two-segment stepover, bathymetry-deformed
// mesh, ramped nucleation: the full Palu feature set.
TEST(PresetEquivalence, PaluMatchesBuiltin) {
  expectPresetMatchesBuiltin("palu", KernelPath::kBatched, 4);
}

// The genuinely new config-only workload: a kinematic three-subfault
// rupture (staggered ramp onsets) with zero scenario-specific C++.
TEST(PresetEquivalence, KinematicSubfaultRunsFromConfigOnly) {
  ThreadCountGuard guard;
  auto a = runBundle(loadPresetScenario(presetPath("kinematic_subfault"), 2),
                     KernelPath::kBatched, 4);
  EXPECT_EQ(a->numReceivers(), 2);
  ASSERT_NE(a->fault(), nullptr);
  EXPECT_TRUE(std::isfinite(a->fault()->maxSlipRate()));
  for (int r = 0; r < a->numReceivers(); ++r) {
    ASSERT_FALSE(a->receiver(r).samples.empty());
    for (const auto& s : a->receiver(r).samples) {
      for (int q = 0; q < kNumQuantities; ++q) {
        ASSERT_TRUE(std::isfinite(s[q]));
      }
    }
  }
  // Deterministic across thread counts like every shipped scenario.
  auto b = runBundle(loadPresetScenario(presetPath("kinematic_subfault"), 2),
                     KernelPath::kBatched, 1);
  expectBitwiseEqual(*a, *b, "kinematic_subfault/t4-vs-t1");
}

// Config-only gravity workload: an eta hump relaxing over composed
// (sum) bathymetry with a sigma-stretched interface and no fault.
TEST(PresetEquivalence, SeamountHumpRunsFromConfigOnly) {
  ThreadCountGuard guard;
  auto sim = runBundle(loadPresetScenario(presetPath("seamount_hump"), 2),
                       KernelPath::kBatched, 4);
  EXPECT_EQ(sim->fault(), nullptr);
  // The initial eta hump survived setup: the sea surface is not flat.
  const auto surf = sim->seaSurface();
  ASSERT_FALSE(surf.empty());
  real maxEta = 0;
  for (const auto& s : surf) {
    ASSERT_TRUE(std::isfinite(s.eta));
    maxEta = std::max(maxEta, std::abs(s.eta));
  }
  EXPECT_GT(maxEta, 0.05);
  EXPECT_LT(maxEta, 10.0);
  for (int r = 0; r < sim->numReceivers(); ++r) {
    ASSERT_FALSE(sim->receiver(r).samples.empty());
  }
}

// Preset bundles carry the scenario name from the [scenario] section
// (telemetry, perf metadata, and the CLI run log all key off it).
TEST(PresetEquivalence, PresetBundlesCarryTheirNames) {
  EXPECT_EQ(loadPresetScenario(presetPath("quickstart"), 1).name,
            "quickstart");
  EXPECT_EQ(loadPresetScenario(presetPath("kinematic_subfault"), 1).name,
            "kinematic_subfault");
}

}  // namespace
}  // namespace tsg
