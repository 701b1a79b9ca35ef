#include "solver/simulation.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "basis/dubiner.hpp"
#include "common/fnv1a.hpp"
#include "common/omp_sync.hpp"
#include "checkpoint/checkpoint.hpp"

namespace tsg {

Simulation::Simulation(Mesh mesh, std::vector<Material> materialTable,
                       SolverConfig cfg)
    : Simulation(std::make_shared<const SimulationAssets>(
                     std::move(mesh), std::move(materialTable),
                     AssetConfig::fromSolverConfig(cfg)),
                 cfg) {}

Simulation::Simulation(std::shared_ptr<const SimulationAssets> assets,
                       SolverConfig cfg)
    : assets_(std::move(assets)), cfg_(cfg), rm_(assets_->rm) {
  if (!assets_) {
    throw std::invalid_argument("Simulation: null SimulationAssets");
  }
  if (!assets_->cfg.matches(cfg_)) {
    throw std::invalid_argument(
        "Simulation: solver config does not structurally match the shared "
        "assets (degree, CFL fraction, gravity, LTS rate, or max clusters "
        "differ)");
  }
  const SimulationAssets& a = *assets_;
  const int nbq = a.nbq;
  const int n = a.mesh.numElements();

  state_.assets = &a;
  state_.cfg = &cfg_;

  // Per-run evolving state.
  state_.dofs.assign(static_cast<std::size_t>(n) * nbq, 0.0);
  state_.stack =
      ZeroedReals(static_cast<std::size_t>(n) * nbq * (cfg_.degree + 1));
  state_.tInt = ZeroedReals(static_cast<std::size_t>(n) * nbq);
  state_.buffer = ZeroedReals(static_cast<std::size_t>(n) * nbq);
  resetDerivedState();

  // Gravity boundary: replay the asset face list in recorded order, so
  // the per-run face indices coincide with the face table's aux values.
  if (cfg_.gravity > 0) {
    gravity_ = std::make_unique<GravityBoundary>(cfg_.degree, cfg_.gravity);
    state_.gravity = gravity_.get();
    for (std::size_t i = 0; i < a.gravityFaces.size(); ++i) {
      const GravityFaceRef& gf = a.gravityFaces[i];
      const int idx =
          gravity_->addFace(a.mesh, gf.elem, gf.face, a.elemMaterial[gf.elem]);
      if (idx != static_cast<int>(i)) {
        throw std::logic_error(
            "Simulation: gravity face replay index mismatch");
      }
    }
  }

  // Seafloor uplift accumulators, one per recorded geometry face.
  state_.seafloorFaces.reserve(a.seafloorGeometry.size());
  for (const SeafloorFaceGeometry& sg : a.seafloorGeometry) {
    SeafloorFace sf;
    sf.elem = sg.elem;
    sf.face = sg.face;
    sf.uplift.assign(rm_.nq, 0.0);
    state_.seafloorFaces.push_back(std::move(sf));
  }

  // Rupture staging buffers (sized from topology; written only once a
  // fault is configured).
  state_.ruptureFlux.assign(
      a.ruptureFaces.size() * 2 * static_cast<std::size_t>(rm_.nq) *
          kNumQuantities,
      0.0);

  state_.receiversOfElement.assign(n, {});

  backend_ = makeKernelBackend(state_);
  scheduler_ = std::make_unique<ClusterScheduler>(state_, *backend_);
}

void Simulation::resetDerivedState() {
  const SimulationAssets& a = *assets_;
  const int n = a.mesh.numElements();
  const std::size_t blockBytes = sizeof(real) * a.nbq;
  const std::size_t stackBytes = blockBytes * (cfg_.degree + 1);
  // One pass in the operand order, so the page faults of the slices a run
  // writes are taken here, in parallel, rather than in its first step.
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
      const int e = a.orderedElements[i];
      std::memset(state_.tIntOf(e), 0, blockBytes);
      if (a.stackNeeded[e]) {
        std::memset(state_.stackOf(e), 0, stackBytes);
      }
      if (a.hasCoarserNeighbor[e]) {
        std::memset(state_.bufferOf(e), 0, blockBytes);
      }
    }
    tsanRelease();
  }
  tsanAcquire();
}

void Simulation::setInitialCondition(const InitialCondition& f) {
  const Mesh& mesh = assets_->mesh;
  const int n = mesh.numElements();
  const int nvq = static_cast<int>(rm_.volQuadXi.size());
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static)
    for (int e = 0; e < n; ++e) {
      real* q = state_.dofsOf(e);
      std::memset(q, 0, sizeof(real) * assets_->nbq);
      for (int i = 0; i < nvq; ++i) {
        const Vec3 x = mesh.toPhysical(e, rm_.volQuadXi[i]);
        const auto val = f(x, mesh.elements[e].material);
        for (int l = 0; l < rm_.nb; ++l) {
          const real w = rm_.volQuadW[i] * rm_.volEval(i, l);
          for (int p = 0; p < kNumQuantities; ++p) {
            q[l * kNumQuantities + p] += w * val[p];
          }
        }
      }
    }
    tsanRelease();
  }
  tsanAcquire();
}

void Simulation::setupFault(const FaultInitFn& init) {
  const SimulationAssets& a = *assets_;
  fault_ = std::make_unique<FaultSolver>(cfg_.degree, cfg_.frictionLaw);
  state_.fault = fault_.get();
  // Replay the asset rupture-face list in recorded (ascending element,
  // face) order: addFace returns sequential indices, so face i here is
  // exactly the face table's aux value on both sides.
  for (std::size_t i = 0; i < a.ruptureFaces.size(); ++i) {
    const RuptureFaceRef& rf = a.ruptureFaces[i];
    const int fi =
        fault_->addFace(a.mesh, rf.elem, rf.face, a.elemMaterial[rf.elem],
                        a.elemMaterial[rf.neighbor], init);
    if (fi != static_cast<int>(i)) {
      throw std::logic_error("Simulation: rupture face replay index mismatch");
    }
  }
}

int Simulation::addReceiver(const std::string& name, const Vec3& x) {
  const int elem = findElement(x);
  if (elem < 0) {
    throw std::invalid_argument("addReceiver: point outside mesh: " + name);
  }
  Receiver r;
  r.name = name;
  r.elem = elem;
  r.xi = assets_->mesh.toReference(elem, x);
  r.phi.resize(rm_.nb);
  for (int l = 0; l < rm_.nb; ++l) {
    r.phi[l] = dubinerTet(l, cfg_.degree, r.xi);
  }
  state_.receivers.push_back(std::move(r));
  const int id = static_cast<int>(state_.receivers.size()) - 1;
  state_.receiversOfElement[elem].push_back(id);
  return id;
}

void Simulation::initializeSeaSurface(const std::function<real(real, real)>& f) {
  if (gravity_) {
    gravity_->setEta(f);
  }
}

void Simulation::onMacroStep(const std::function<void(real)>& cb) {
  macroCallbacks_.push_back(cb);
}

real Simulation::macroDt() const {
  const ClusterLayout& clusters = assets_->clusters;
  return clusters.dtMin * static_cast<real>(clusters.ticksPerMacro());
}

void Simulation::advanceTo(real tEnd) {
  // Guard: meshes with tagged rupture faces need a configured fault.
  if (!fault_ && !assets_->ruptureFaces.empty()) {
    throw std::logic_error(
        "advanceTo: mesh has dynamic-rupture faces but setupFault() was "
        "not called");
  }
  const ClusterLayout& clusters = assets_->clusters;
  const real eps = 1e-12 * std::max(real(1), tEnd);
  while (time_ < tEnd - eps) {
    scheduler_->runMacroCycle(perf_.get());
    time_ = clusters.dtMin * static_cast<real>(scheduler_->tick());
    for (const auto& cb : macroCallbacks_) {
      cb(time_);
    }
  }
}

const ClusterBatchLayout& Simulation::batchLayout() const {
  static const ClusterBatchLayout kEmpty;
  const ClusterBatchLayout* layout = backend_->batchLayout();
  return layout ? *layout : kEmpty;
}

PerfMonitor& Simulation::enablePerfMonitor(bool withTrace) {
  if (!perf_) {
    perf_ = std::make_unique<PerfMonitor>();
  }
  if (withTrace) {
    perf_->enableTrace();
  }
  return *perf_;
}

PerfReportMeta Simulation::perfReportMeta(const std::string& scenario) const {
  const ClusterLayout& clusters = assets_->clusters;
  PerfReportMeta meta;
  meta.scenario = scenario;
  meta.kernelPath = kernelPathName(cfg_.kernelPath);
  meta.backend = backend_->name();
  meta.degree = cfg_.degree;
  // Prefer the thread count the scheduler actually ran with; ambient
  // omp_get_max_threads() may have changed since (it is only the fallback
  // before the first macro cycle).
  meta.threads = scheduler_->planThreads() > 0 ? scheduler_->planThreads()
                                               : omp_get_max_threads();
  meta.batchSize = backend_->reportBatchSize();
  meta.elements = assets_->mesh.numElements();
  meta.ltsRate = clusters.rate;
  meta.elementUpdates = scheduler_->elementUpdates();
  meta.simulatedSeconds = time_;
  for (int c = 0; c < clusters.numClusters; ++c) {
    PerfClusterInfo info;
    info.cluster = c;
    info.elements =
        static_cast<std::int64_t>(clusters.elementsOfCluster[c].size());
    info.dt = clusters.dtMin * static_cast<real>(clusters.spanOf(c));
    meta.clusters.push_back(info);
  }
  return meta;
}

std::array<real, kNumQuantities> Simulation::evaluate(int elem,
                                                      const Vec3& xi) const {
  std::array<real, kNumQuantities> val{};
  const real* q = state_.dofsOf(elem);
  for (int l = 0; l < rm_.nb; ++l) {
    const real phi = dubinerTet(l, cfg_.degree, xi);
    for (int p = 0; p < kNumQuantities; ++p) {
      val[p] += phi * q[l * kNumQuantities + p];
    }
  }
  return val;
}

int Simulation::findElement(const Vec3& x) const {
  return assets_->spatialIndex->locate(assets_->mesh, x);
}

std::array<real, kNumQuantities> Simulation::evaluateAt(const Vec3& x) const {
  const int e = findElement(x);
  if (e < 0) {
    throw std::invalid_argument("evaluateAt: point outside mesh");
  }
  return evaluate(e, assets_->mesh.toReference(e, x));
}

std::uint64_t Simulation::configHash() const {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = fnv1aOf(h, cfg_.degree);
  h = fnv1aOf(h, cfg_.cflFraction);
  h = fnv1aOf(h, cfg_.gravity);
  h = fnv1aOf(h, cfg_.ltsRate);
  h = fnv1aOf(h, cfg_.maxClusters);
  h = fnv1aOf(h, static_cast<int>(cfg_.frictionLaw));
  h = fnv1aOf(h, assets_->mesh.numElements());
  h = fnv1aOf(h, assets_->clusters.numClusters);
  h = fnv1aOf(h, assets_->clusters.dtMin);
  return h;
}

void Simulation::saveCheckpoint(const std::string& path) const {
  const ClusterLayout& clusters = assets_->clusters;
  if (clusters.numClusters > 0 &&
      scheduler_->tick() % clusters.ticksPerMacro() != 0) {
    throw std::logic_error(
        "saveCheckpoint: state is only consistent at macro-cycle "
        "boundaries (call between advanceTo calls or from onMacroStep)");
  }
  PerfSpan span(perf_.get(), "checkpoint_save");
  CheckpointHeader h;
  h.degree = static_cast<std::uint32_t>(cfg_.degree);
  h.numElements = static_cast<std::uint64_t>(assets_->mesh.numElements());
  h.configHash = configHash();
  h.assetHash = assets_->assetHash;
  h.scenarioHash = scenarioHash_;
  writeCheckpointFile(path, h, [&](BinaryWriter& w) {
    w.writeI64(scheduler_->tick());
    w.writeReal(time_);
    w.writeU64(scheduler_->elementUpdates());
    w.writeRealVec(state_.dofs);
    w.writeU32(gravity_ ? 1 : 0);
    if (gravity_) {
      gravity_->saveState(w);
    }
    w.writeU32(fault_ ? 1 : 0);
    if (fault_) {
      fault_->saveState(w);
    }
    w.writeU64(state_.seafloorFaces.size());
    for (const auto& sf : state_.seafloorFaces) {
      w.writeRealVec(sf.uplift);
    }
    w.writeU64(state_.receivers.size());
    for (const auto& r : state_.receivers) {
      w.writeString(r.name);
      w.writeRealVec(r.times);
      w.writeU64(r.samples.size());
      for (const auto& s : r.samples) {
        for (int q = 0; q < kNumQuantities; ++q) {
          w.writeReal(s[q]);
        }
      }
    }
  });
}

void Simulation::restoreCheckpoint(const std::string& path) {
  PerfSpan span(perf_.get(), "checkpoint_restore");
  const CheckpointFile file = readCheckpointFile(path);
  const CheckpointHeader& h = file.header;
  if (h.degree != static_cast<std::uint32_t>(cfg_.degree)) {
    throw CheckpointError("checkpoint " + path + ": degree mismatch (file " +
                          std::to_string(h.degree) + ", live " +
                          std::to_string(cfg_.degree) + ")");
  }
  if (h.numElements !=
      static_cast<std::uint64_t>(assets_->mesh.numElements())) {
    throw CheckpointError(
        "checkpoint " + path + ": element count mismatch (file " +
        std::to_string(h.numElements) + ", live " +
        std::to_string(assets_->mesh.numElements()) + ")");
  }
  if (h.configHash != configHash()) {
    throw CheckpointError(
        "checkpoint " + path +
        ": solver configuration hash mismatch (CFL fraction, gravity, LTS "
        "rate/clusters, friction law, or timestep differ from the run that "
        "wrote it)");
  }
  if (h.assetHash != 0 && h.assetHash != assets_->assetHash) {
    throw CheckpointError(
        "checkpoint " + path +
        ": asset hash mismatch (mesh content, material table, or "
        "structural solver config differ from the run that wrote it)");
  }
  if (h.scenarioHash != 0 && scenarioHash_ != 0 &&
      h.scenarioHash != scenarioHash_) {
    throw CheckpointError(
        "checkpoint " + path +
        ": scenario hash mismatch (this checkpoint was written by a "
        "different scenario/member config)");
  }

  BinaryReader r(file.payload());
  const std::int64_t tick = r.readI64();
  const real time = r.readReal();
  const std::uint64_t updates = r.readU64();
  r.readRealVecInto(state_.dofs, "DOF count");
  const bool hasGravity = r.readU32() != 0;
  if (hasGravity != (gravity_ != nullptr)) {
    throw CheckpointError("checkpoint " + path +
                          ": gravity-surface presence mismatch");
  }
  if (gravity_) {
    gravity_->restoreState(r);
  }
  const bool hasFault = r.readU32() != 0;
  if (hasFault != (fault_ != nullptr)) {
    throw CheckpointError(
        "checkpoint " + path +
        ": fault presence mismatch (was setupFault() called as in the "
        "original run?)");
  }
  if (fault_) {
    fault_->restoreState(r);
  }
  const std::uint64_t nSeafloor = r.readU64();
  if (nSeafloor != state_.seafloorFaces.size()) {
    throw CheckpointError("checkpoint " + path +
                          ": seafloor face count mismatch");
  }
  for (auto& sf : state_.seafloorFaces) {
    r.readRealVecInto(sf.uplift, "seafloor quadrature size");
  }
  const std::uint64_t nReceivers = r.readU64();
  if (nReceivers != state_.receivers.size()) {
    throw CheckpointError(
        "checkpoint " + path + ": receiver count mismatch (file " +
        std::to_string(nReceivers) + ", live " +
        std::to_string(state_.receivers.size()) +
        "); register the same receivers before restoring");
  }
  for (auto& rec : state_.receivers) {
    const std::string name = r.readString();
    if (name != rec.name) {
      throw CheckpointError("checkpoint " + path +
                            ": receiver name mismatch (file '" + name +
                            "', live '" + rec.name + "')");
    }
    rec.times = r.readRealVec();
    const std::uint64_t ns = r.readU64();
    rec.samples.assign(ns, {});
    for (auto& s : rec.samples) {
      for (int q = 0; q < kNumQuantities; ++q) {
        s[q] = r.readReal();
      }
    }
  }

  // Commit the clock last.  The state above is read straight into place,
  // so a restore that throws leaves it partly overwritten: build a fresh
  // simulation to try another file.  The derived per-step buffers (stack,
  // time integrals, LTS buffers) are all recomputed by the predictor phase
  // at the start of the next macro cycle before anything reads them.  The
  // constructor's reset zeroes them anyway, over the same slices it
  // touched there, so a restored run never reads pre-restore values and
  // a resume faults in no page the run never writes.
  scheduler_->restoreClock(tick, updates);
  time_ = time;
  resetDerivedState();
}

int Simulation::firstNonFiniteElement() const {
  const int n = assets_->mesh.numElements();
  const int nbq = assets_->nbq;
  // Hand-rolled min reduction: thread-local scan, then one CAS merge.
  // (An `omp reduction` combines inside uninstrumented libgomp, which
  // TSan cannot see; a std::atomic merge is equivalent and visible.)
  std::atomic<int> first{n};
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
    int mine = n;
#pragma omp for schedule(static) nowait
    for (int e = 0; e < n; ++e) {
      const real* q = state_.dofsOf(e);
      for (int i = 0; i < nbq; ++i) {
        if (!std::isfinite(q[i])) {
          mine = std::min(mine, e);
          break;
        }
      }
    }
    int cur = first.load(std::memory_order_relaxed);
    while (mine < cur &&
           !first.compare_exchange_weak(cur, mine,
                                        std::memory_order_acq_rel)) {
    }
    tsanRelease();
  }
  tsanAcquire();
  const int f = first.load(std::memory_order_relaxed);
  return f == n ? -1 : f;
}

void Simulation::debugInjectNonFinite(int elem) {
  state_.dofsOf(elem)[0] = std::numeric_limits<real>::quiet_NaN();
}

std::vector<SurfaceSample> Simulation::seaSurface() const {
  if (!gravity_) {
    return {};
  }
  return gravity_->allSamples();
}

std::vector<SeafloorSample> Simulation::seafloor() const {
  std::vector<SeafloorSample> out;
  for (std::size_t i = 0; i < state_.seafloorFaces.size(); ++i) {
    const SeafloorFace& sf = state_.seafloorFaces[i];
    const SeafloorFaceGeometry& sg = assets_->seafloorGeometry[i];
    for (int q = 0; q < rm_.nq; ++q) {
      out.push_back({sg.qpX[q], sg.qpY[q], sf.uplift[q]});
    }
  }
  return out;
}

}  // namespace tsg
