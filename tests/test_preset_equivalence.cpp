// Preset pins.  The shipped presets under examples/presets/ are the
// paper's workloads (and what every bench, example and scenario test
// builds from), so what they build is pinned by committed digests:
//  * computeAssetHash (mesh, material table, structural solver config),
//  * FaultPointInit at every dynamic-rupture face centroid, plus the
//    friction law,
//  * the receiver list and the initial condition sampled per element.
// The digests were generated when the presets still had compiled-in
// ancestors that reproduced them bitwise.  They avoid most libm calls, so
// they are far more host-stable than a digest of a run.  The two
// config-only workloads (kinematic_subfault, seamount_hump) are pinned for
// thread-count determinism and basic physics instead.

#include <omp.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "physics/jacobians.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation.hpp"
#include "solver/simulation_assets.hpp"

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

/// FNV-1a offset basis: the digest of nothing (e.g. no initial condition).
constexpr std::uint64_t kEmptyDigest = 1469598103934665603ull;

/// FNV-1a over the object representation of every value added.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kEmptyDigest;
};

struct BundleDigests {
  std::uint64_t asset, faultInit, receivers, initial;
};

BundleDigests digestsOf(const ScenarioBundle& b) {
  Digest fault;
  fault.add(b.solver.frictionLaw);
  if (b.faultInit) {
    for (int e = 0; e < b.mesh.numElements(); ++e) {
      for (int f = 0; f < 4; ++f) {
        if (b.mesh.faces[e][f].bc != BoundaryType::kDynamicRupture) {
          continue;
        }
        const Vec3 n = b.mesh.faceNormal(e, f);
        Vec3 t1, t2;
        faceBasis(n, t1, t2);
        // FaultPointInit holds only reals: no padding bytes.
        fault.add(b.faultInit(b.mesh.faceCentroid(e, f), n, t1, t2));
      }
    }
  }
  Digest receivers;
  for (const auto& r : b.receivers) {
    for (const char c : r.name) {
      receivers.add(c);
    }
    receivers.add(r.x);
  }
  Digest initial;
  if (b.initial) {
    for (int e = 0; e < b.mesh.numElements(); ++e) {
      initial.add(b.initial(b.mesh.centroid(e), b.mesh.elements[e].material));
    }
  }
  return {computeAssetHash(b.mesh, b.materials,
                           AssetConfig::fromSolverConfig(b.solver)),
          fault.value(), receivers.value(), initial.value()};
}

void expectDigests(const std::string& name, const BundleDigests& want) {
  const ScenarioBundle bundle = loadPresetScenario(presetPath(name), 2);
  const BundleDigests got = digestsOf(bundle);
  EXPECT_EQ(got.asset, want.asset) << name << ": mesh/materials/config";
  EXPECT_EQ(got.faultInit, want.faultInit) << name << ": fault init";
  EXPECT_EQ(got.receivers, want.receivers) << name << ": receivers";
  EXPECT_EQ(got.initial, want.initial) << name << ": initial condition";
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

/// The bitwise contract between two runs: receiver series (in memory AND
/// as CSV bytes), the full modal DOF vector, sea-surface eta, seafloor
/// uplift, and the fault state summary.
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

// Quickstart: pressure-pulse initial condition and receivers, no fault.
TEST(PresetEquivalence, QuickstartBundleMatchesPinnedDigests) {
  expectDigests("quickstart", {0xddc2a54de6cc1ea2ull, 0x315446a086a23133ull,
                               0x8ac5cc2275e0c127ull, 0x1cfe20f0b602ab23ull});
}

// Dynamic rupture + cohesion taper + 45-degree dipping segment.
TEST(PresetEquivalence, MegathrustBundleMatchesPinnedDigests) {
  expectDigests("megathrust", {0x4139caea356a5002ull, 0xccc8d73775c8aacbull,
                               0xc21541c7c7aee817ull, kEmptyDigest});
}

// Rate-and-state friction, two-segment stepover, bathymetry-deformed
// mesh, ramped nucleation: the full Palu feature set.
TEST(PresetEquivalence, PaluBundleMatchesPinnedDigests) {
  expectDigests("palu", {0x243fbcb35358efedull, 0x58846b8be008e43eull,
                         0x7eede33236d0d6ccull, kEmptyDigest});
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
