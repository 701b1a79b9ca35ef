// Checkpoint/restart subsystem:
//  * kill-and-resume equivalence: a deterministic megathrust run saved at
//    a macro-cycle boundary and restored into a freshly built simulation
//    continues bitwise-identically (receiver CSVs byte-compare equal),
//  * header/CRC validation rejects truncated, bit-flipped, wrong-degree,
//    and wrong-config files with descriptive errors,
//  * atomic temp+rename writes never clobber the previous checkpoint,
//  * the asset hash in the header depends on mesh field values only.

#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.hpp"
#include "common/errors.hpp"
#include "geometry/mesh_builder.hpp"
#include "io/atomic_file.hpp"
#include "scenario/spec.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Small two-material box with a gravity free surface on top: exercises
/// DOFs, eta, and seafloor-uplift state without the megathrust cost.
std::unique_ptr<Simulation> smallGravitySim(
    int degree, real cflFraction,
    KernelPath kernelPath = KernelPath::kBatched) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1000, 3);
  spec.yLines = uniformLine(0, 1000, 3);
  spec.zLines = uniformLine(-800, 0, 4);
  spec.material = [](const Vec3& c) { return c[2] > -300 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  SolverConfig cfg;
  cfg.degree = degree;
  cfg.cflFraction = cflFraction;
  cfg.deterministic = true;
  cfg.kernelPath = kernelPath;
  auto sim = std::make_unique<Simulation>(
      buildBoxMesh(spec),
      std::vector<Material>{Material::fromVelocities(2700, 6000, 3464),
                            Material::acoustic(1000, 1500)},
      cfg);
  sim->setInitialCondition([](const Vec3& x, int material) {
    std::array<real, 9> q{};
    if (material == 1) {
      const real p = 1e3 * std::exp(-norm2(x - Vec3{500, 500, -150}) / 2e4);
      q[kSxx] = q[kSyy] = q[kSzz] = -p;
    }
    return q;
  });
  sim->addReceiver("mid", {500.0, 500.0, -150.0});
  return sim;
}

TEST(Checkpoint, Crc32KnownVector) {
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(data, 0), 0u);
}

TEST(Checkpoint, BinaryRoundTrip) {
  BinaryWriter w;
  w.writeI64(-42);
  w.writeReal(3.25);
  w.writeRealVec({1.0, 2.0, 3.0});
  w.writeString("receiver-a");
  w.writeU32(7);
  BinaryReader r(w.takeBuffer());
  EXPECT_EQ(r.readI64(), -42);
  EXPECT_EQ(r.readReal(), 3.25);
  EXPECT_EQ(r.readRealVec(), (std::vector<real>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.readString(), "receiver-a");
  EXPECT_EQ(r.readU32(), 7u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.readReal(), CheckpointError);
}

TEST(Checkpoint, SmallSimRoundTripIsBitwiseExact) {
  const std::string path = "ckpt_small.tsgck";
  auto a = smallGravitySim(2, 0.35);
  a->advanceTo(2.0 * a->macroDt() - 1e-12);
  a->saveCheckpoint(path);
  const real t2 = 4.0 * a->macroDt() - 1e-12;
  a->advanceTo(t2);

  auto b = smallGravitySim(2, 0.35);
  b->restoreCheckpoint(path);
  EXPECT_EQ(b->tick(), a->tick() / 2);  // restored at the mid-run boundary
  b->advanceTo(t2);

  EXPECT_EQ(a->time(), b->time());
  EXPECT_EQ(a->tick(), b->tick());
  EXPECT_EQ(a->elementUpdates(), b->elementUpdates());
  // DOFs bitwise equal everywhere.
  for (int e = 0; e < a->mesh().numElements(); ++e) {
    const auto va = a->evaluate(e, {0.25, 0.25, 0.25});
    const auto vb = b->evaluate(e, {0.25, 0.25, 0.25});
    for (int q = 0; q < kNumQuantities; ++q) {
      ASSERT_EQ(va[q], vb[q]) << "element " << e << " quantity " << q;
    }
  }
  // Sea-surface eta bitwise equal.
  const auto sa = a->seaSurface();
  const auto sb = b->seaSurface();
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_FALSE(sa.empty());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].eta, sb[i].eta);
  }
  // Receiver series (restored prefix + recomputed suffix) bitwise equal.
  const Receiver& ra = a->receiver(0);
  const Receiver& rb = b->receiver(0);
  ASSERT_EQ(ra.times.size(), rb.times.size());
  for (std::size_t i = 0; i < ra.times.size(); ++i) {
    ASSERT_EQ(ra.times[i], rb.times[i]);
    for (int q = 0; q < kNumQuantities; ++q) {
      ASSERT_EQ(ra.samples[i][q], rb.samples[i][q]);
    }
  }
  std::remove(path.c_str());
}

std::unique_ptr<Simulation> presetSim(const std::string& name) {
  ScenarioBundle bundle = loadPresetScenario(
      std::string(TSG_PRESET_DIR) + "/" + name + ".cfg", 2);
  bundle.solver.deterministic = true;
  return makeSimulation(bundle);
}

TEST(Checkpoint, MegathrustKillAndResumeReceiverCsvsAreByteIdentical) {
  // The acceptance criterion: an interrupted-at-a-checkpoint + resumed
  // deterministic megathrust run produces byte-identical receiver CSVs to
  // an uninterrupted one.  Covers DOFs, gravity eta, LSW fault state, and
  // seafloor uplift through a full coupled dynamic-rupture setup.
  const std::string path = "ckpt_megathrust.tsgck";
  auto a = presetSim("megathrust");
  const real t1 = 2.0 * a->macroDt() - 1e-12;
  const real t2 = 4.0 * a->macroDt() - 1e-12;
  a->advanceTo(t1);
  a->saveCheckpoint(path);
  a->advanceTo(t2);

  auto b = presetSim("megathrust");
  b->restoreCheckpoint(path);
  b->advanceTo(t2);

  for (int r = 0; r < a->numReceivers(); ++r) {
    const std::string pa = "ckpt_a_" + a->receiver(r).name + ".csv";
    const std::string pb = "ckpt_b_" + b->receiver(r).name + ".csv";
    a->receiver(r).writeCsv(pa);
    b->receiver(r).writeCsv(pb);
    const std::string bytesA = fileBytes(pa);
    EXPECT_FALSE(bytesA.empty());
    EXPECT_EQ(bytesA, fileBytes(pb)) << "receiver " << a->receiver(r).name;
    std::remove(pa.c_str());
    std::remove(pb.c_str());
  }
  // Fault friction state and seafloor uplift continue identically too.
  ASSERT_NE(a->fault(), nullptr);
  EXPECT_EQ(a->fault()->maxSlipRate(), b->fault()->maxSlipRate());
  const auto fa = a->seafloor();
  const auto fb = b->seafloor();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i].uplift, fb[i].uplift);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string path = "ckpt_trunc.tsgck";
  auto sim = smallGravitySim(2, 0.35);
  sim->saveCheckpoint(path);
  std::string bytes = fileBytes(path);
  ASSERT_GT(bytes.size(), 100u);

  // Cut mid-payload.
  atomicWriteFile(path, bytes.substr(0, bytes.size() / 2));
  try {
    sim->restoreCheckpoint(path);
    FAIL() << "truncated checkpoint accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // Cut mid-header.
  atomicWriteFile(path, bytes.substr(0, 10));
  EXPECT_THROW(sim->restoreCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedPayloadByteIsRejectedByCrc) {
  const std::string path = "ckpt_crc.tsgck";
  auto sim = smallGravitySim(2, 0.35);
  sim->advanceTo(sim->macroDt() - 1e-12);
  sim->saveCheckpoint(path);
  std::string bytes = fileBytes(path);
  bytes[bytes.size() - 7] ^= 0x10;  // flip one payload bit
  atomicWriteFile(path, bytes);
  try {
    sim->restoreCheckpoint(path);
    FAIL() << "corrupt checkpoint accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BadMagicIsRejected) {
  const std::string path = "ckpt_magic.tsgck";
  atomicWriteFile(path, std::string(200, 'x'));
  auto sim = smallGravitySim(2, 0.35);
  try {
    sim->restoreCheckpoint(path);
    FAIL() << "non-checkpoint file accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(sim->restoreCheckpoint("ckpt_does_not_exist.tsgck"),
               CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, WrongDegreeAndWrongConfigAreRejectedDescriptively) {
  const std::string path = "ckpt_mismatch.tsgck";
  smallGravitySim(2, 0.35)->saveCheckpoint(path);

  auto wrongDegree = smallGravitySim(3, 0.35);
  try {
    wrongDegree->restoreCheckpoint(path);
    FAIL() << "degree mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("degree"), std::string::npos)
        << e.what();
  }

  auto wrongCfl = smallGravitySim(2, 0.20);
  try {
    wrongCfl->restoreCheckpoint(path);
    FAIL() << "config mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ReceiverSetMismatchIsRejected) {
  const std::string path = "ckpt_receivers.tsgck";
  smallGravitySim(2, 0.35)->saveCheckpoint(path);
  // Same solver config, but the restoring run forgot to register the
  // receiver: must be a descriptive error, not silently dropped series.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1000, 3);
  spec.yLines = uniformLine(0, 1000, 3);
  spec.zLines = uniformLine(-800, 0, 4);
  spec.material = [](const Vec3& c) { return c[2] > -300 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.deterministic = true;
  Simulation bare(buildBoxMesh(spec),
                  {Material::fromVelocities(2700, 6000, 3464),
                   Material::acoustic(1000, 1500)},
                  cfg);
  try {
    bare.restoreCheckpoint(path);
    FAIL() << "receiver mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("receiver"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, AtomicWriteSurvivesStaleTempAndFailedRewrite) {
  const std::string path = "ckpt_atomic.tsgck";
  auto sim = smallGravitySim(2, 0.35);
  sim->advanceTo(sim->macroDt() - 1e-12);
  sim->saveCheckpoint(path);
  const std::string good = fileBytes(path);
  ASSERT_FALSE(good.empty());

  // No staging file may be left behind by a successful atomic write.
  std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(tmp.is_open());

  // A stale temp file from a killed writer must not break the next write.
  {
    std::ofstream stale(path + ".tmp.12345");
    stale << "partial garbage from a crashed writer";
  }
  sim->saveCheckpoint(path);
  std::string payload;
  EXPECT_NO_THROW(readCheckpointFile(path, payload));
  std::remove((path + ".tmp.12345").c_str());

  // A failed write (unwritable directory) throws IoError and leaves the
  // previous checkpoint untouched.
  EXPECT_THROW(
      sim->saveCheckpoint("ckpt_no_such_dir/sub/ckpt.tsgck"), IoError);
  EXPECT_EQ(fileBytes(path), fileBytes(path));  // still readable
  EXPECT_NO_THROW(readCheckpointFile(path, payload));
  std::remove(path.c_str());
}

TEST(Checkpoint, RelayoutSurvivesCrossKernelPathSaveRestore) {
  // kernelPath is deliberately excluded from configHash(): the batched
  // pipeline keeps the per-element arrays primary (the relayout is pure
  // data movement), so a checkpoint written by a batched run must restore
  // into a reference-path simulation -- and vice versa -- and continue
  // bitwise-identically.
  const std::string path = "ckpt_crosspath.tsgck";
  auto a = smallGravitySim(2, 0.35, KernelPath::kBatched);
  a->advanceTo(2.0 * a->macroDt() - 1e-12);
  a->saveCheckpoint(path);
  const real t2 = 4.0 * a->macroDt() - 1e-12;
  a->advanceTo(t2);

  for (KernelPath kp : {KernelPath::kReference, KernelPath::kBatched}) {
    auto b = smallGravitySim(2, 0.35, kp);
    b->restoreCheckpoint(path);
    b->advanceTo(t2);
    EXPECT_EQ(a->tick(), b->tick());
    const Receiver& ra = a->receiver(0);
    const Receiver& rb = b->receiver(0);
    ASSERT_EQ(ra.times.size(), rb.times.size());
    for (std::size_t i = 0; i < ra.times.size(); ++i) {
      ASSERT_EQ(ra.times[i], rb.times[i]);
      for (int q = 0; q < kNumQuantities; ++q) {
        ASSERT_EQ(ra.samples[i][q], rb.samples[i][q])
            << (kp == KernelPath::kReference ? "reference" : "batched")
            << " sample " << i << " quantity " << q;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PresetBuiltSimRoundTripsBitwise) {
  // Preset-built scenario -> checkpoint -> restore into a second
  // preset-built simulation resumes bitwise.
  const std::string path = "ckpt_preset.tsgck";
  auto a = presetSim("quickstart");
  auto p = presetSim("quickstart");
  const real t1 = 2.0 * a->macroDt() - 1e-12;
  const real t2 = 4.0 * a->macroDt() - 1e-12;
  a->advanceTo(t1);
  a->saveCheckpoint(path);
  a->advanceTo(t2);

  p->restoreCheckpoint(path);
  p->advanceTo(t2);
  EXPECT_EQ(a->tick(), p->tick());
  for (int r = 0; r < a->numReceivers(); ++r) {
    const Receiver& ra = a->receiver(r);
    const Receiver& rp = p->receiver(r);
    ASSERT_EQ(ra.times.size(), rp.times.size());
    for (std::size_t i = 0; i < ra.times.size(); ++i) {
      ASSERT_EQ(ra.times[i], rp.times[i]);
      for (int q = 0; q < kNumQuantities; ++q) {
        ASSERT_EQ(ra.samples[i][q], rp.samples[i][q])
            << "receiver " << ra.name << " sample " << i << " quantity " << q;
      }
    }
  }
  const auto sa = a->seaSurface();
  const auto sp = p->seaSurface();
  ASSERT_EQ(sa.size(), sp.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].eta, sp[i].eta);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveRejectedOffMacroBoundaryStateIsImpossibleViaApi) {
  // advanceTo only stops at macro-cycle boundaries, so tick is always a
  // multiple of ticksPerMacro when user code can call saveCheckpoint;
  // pin that invariant here so a future sub-cycle API keeps the guard.
  auto sim = smallGravitySim(2, 0.35);
  sim->advanceTo(1.5 * sim->macroDt());
  EXPECT_EQ(sim->tick() % sim->clusters().ticksPerMacro(), 0);
  EXPECT_NO_THROW(sim->saveCheckpoint("ckpt_boundary.tsgck"));
  std::remove("ckpt_boundary.tsgck");
}

// The asset hash keys the checkpoint header and the ensemble asset cache,
// so it must see field values only: the padding after FaceInfo's one-byte
// BoundaryType is indeterminate and differs between processes.
TEST(Checkpoint, AssetHashIgnoresFaceInfoPadding) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1000, 2);
  spec.yLines = uniformLine(0, 1000, 2);
  spec.zLines = uniformLine(-800, 0, 2);
  const Mesh base = buildBoxMesh(spec);
  auto withPadding = [&](unsigned char fill) {
    Mesh m = base;
    for (std::size_t e = 0; e < m.faces.size(); ++e) {
      for (int f = 0; f < 4; ++f) {
        const FaceInfo& src = base.faces[e][f];
        FaceInfo& dst = m.faces[e][f];
        std::memset(static_cast<void*>(&dst), fill, sizeof dst);
        dst.neighbor = src.neighbor;
        dst.neighborFace = src.neighborFace;
        dst.permutation = src.permutation;
        dst.bc = src.bc;
      }
    }
    return m;
  };
  const std::vector<Material> mats{Material::fromVelocities(2700, 6000, 3464)};
  const AssetConfig cfg;
  EXPECT_EQ(computeAssetHash(withPadding(0x00), mats, cfg),
            computeAssetHash(withPadding(0xff), mats, cfg));
}

}  // namespace
}  // namespace tsg
