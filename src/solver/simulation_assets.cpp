#include "solver/simulation_assets.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "common/fnv1a.hpp"
#include "common/omp_sync.hpp"
#include "geometry/reference_tet.hpp"
#include "kernels/element_kernels.hpp"
#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"

namespace tsg {

namespace {

/// Inverse-transpose columns of the affine map: grad xi_c in physical
/// coordinates, i.e. row c of J^{-1}.
std::array<Vec3, 3> gradXi(const Mesh& mesh, int elem) {
  const auto j = mesh.jacobianColumns(elem);
  const real det = dot(j[0], cross(j[1], j[2]));
  const Vec3 r0 = (1.0 / det) * cross(j[1], j[2]);
  const Vec3 r1 = (1.0 / det) * cross(j[2], j[0]);
  const Vec3 r2 = (1.0 / det) * cross(j[0], j[1]);
  return {r0, r1, r2};
}

}  // namespace

std::uint64_t computeAssetHash(const Mesh& mesh,
                               const std::vector<Material>& materialTable,
                               const AssetConfig& cfg) {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = fnv1aOf(h, cfg.degree);
  h = fnv1aOf(h, cfg.cflFraction);
  h = fnv1aOf(h, cfg.gravity);
  h = fnv1aOf(h, cfg.ltsRate);
  h = fnv1aOf(h, cfg.maxClusters);
  h = fnv1a(h, mesh.vertices.data(), mesh.vertices.size() * sizeof(Vec3));
  h = fnv1a(h, mesh.elements.data(), mesh.elements.size() * sizeof(Element));
  // Field by field: FaceInfo has padding after its one-byte `bc`, whose
  // bytes differ between otherwise equal meshes.
  for (const auto& faces : mesh.faces) {
    for (const FaceInfo& f : faces) {
      h = fnv1aOf(h, f.neighbor);
      h = fnv1aOf(h, f.neighborFace);
      h = fnv1aOf(h, f.permutation);
      h = fnv1aOf(h, f.bc);
    }
  }
  h = fnv1a(h, materialTable.data(), materialTable.size() * sizeof(Material));
  return h;
}

SimulationAssets::SimulationAssets(Mesh meshIn,
                                   std::vector<Material> materialTableIn,
                                   const AssetConfig& cfgIn)
    : cfg(cfgIn),
      mesh(std::move(meshIn)),
      materialTable(std::move(materialTableIn)),
      rm(referenceMatrices(cfgIn.degree)) {
  const int n = mesh.numElements();
  elemMaterial.resize(n);
  for (int e = 0; e < n; ++e) {
    const int id = mesh.elements[e].material;
    if (id < 0 || id >= static_cast<int>(materialTable.size())) {
      throw std::out_of_range("SimulationAssets: material id out of range");
    }
    elemMaterial[e] = materialTable[id];
  }

  clusters = buildClusters(mesh, elemMaterial, cfg.degree, cfg.cflFraction,
                           cfg.ltsRate, cfg.maxClusters);

  nbq = dofCount(rm);
  scratchSize =
      2 * static_cast<std::size_t>(nbq) +
      2 * static_cast<std::size_t>(cfg.degree + 1) * rm.nq * kNumQuantities +
      2 * static_cast<std::size_t>(rm.nq) * kNumQuantities;

  // ---- cluster-contiguous element order: the concatenated cluster
  // element lists, which every batch size partitions in place ---------
  orderedElements.reserve(n);
  for (const auto& elems : clusters.elementsOfCluster) {
    orderedElements.insert(orderedElements.end(), elems.begin(), elems.end());
  }
  orderedIndexOf.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    orderedIndexOf[orderedElements[i]] = i;
  }

  // ---- serial discovery pass over (e, f): LTS neighbour flags, the
  // face table (kinds, scales, neighbour relations, aux pre-assignment in
  // canonical (e, f) order), and the face-frame flux operators of every
  // material pair in use --------------------------------------------------
  faceTable.assign(static_cast<std::size_t>(n) * 4, {});
  hasCoarserNeighbor.assign(n, 0);
  stackNeeded.assign(n, 0);
  const auto recordOf = [&](int e, int f) -> FaceRecord& {
    return faceTable[static_cast<std::size_t>(orderedIndexOf[e]) * 4 + f];
  };

  const bool gravityOn = cfg.gravity > 0;
  // Flux operators keyed by (minus material id, plus material id or -1,
  // folded boundary type or -1); faceOps holds each face's entry.
  std::map<std::array<int, 3>, int> opsIndex;
  std::vector<GodunovOperators> ops;
  std::vector<int> faceOps(static_cast<std::size_t>(n) * 4, -1);
  const auto opsOf = [&](const std::array<int, 3>& key) {
    const auto [it, inserted] =
        opsIndex.emplace(key, static_cast<int>(ops.size()));
    if (inserted) {
      const Material& m = materialTable[key[0]];
      ops.push_back(
          key[1] >= 0 ? godunovOperators(m, materialTable[key[1]])
                      : boundaryOperators(m, static_cast<BoundaryType>(key[2])));
    }
    return it->second;
  };

  for (int e = 0; e < n; ++e) {
    const real volJ = 6.0 * mesh.volume(e);
    const int mat = mesh.elements[e].material;
    for (int f = 0; f < 4; ++f) {
      const std::size_t idx = static_cast<std::size_t>(e) * 4 + f;
      const FaceInfo& info = mesh.faces[e][f];
      FaceRecord& rec = recordOf(e, f);
      rec.scale = 2.0 * mesh.faceArea(e, f) / volJ;
      rec.neighbor = info.neighbor;
      rec.neighborFace = static_cast<std::uint8_t>(info.neighborFace);
      rec.permutation = static_cast<std::uint8_t>(info.permutation);

      if (info.neighbor >= 0) {
        const int dc = clusters.cluster[info.neighbor] - clusters.cluster[e];
        rec.relation = dc == 0 ? 0 : (dc > 0 ? 1 : 2);
        if (dc > 0) {
          hasCoarserNeighbor[e] = 1;
        }
        if (info.bc == BoundaryType::kDynamicRupture) {
          rec.kind = (e < info.neighbor) ? FaceKind::kRuptureMinus
                                         : FaceKind::kRupturePlus;
          stackNeeded[e] = 1;
          if (e < info.neighbor) {
            // Aux index pre-assigned in discovery order: each run's
            // FaultSolver::addFace replay yields exactly these indices.
            const int fi = static_cast<int>(ruptureFaces.size());
            rec.aux = fi;
            recordOf(info.neighbor, info.neighborFace).aux = fi;
            ruptureFaces.push_back({e, f, info.neighbor, info.neighborFace});
          }
          continue;
        }
        rec.kind = FaceKind::kRegular;
        if (dc > 0) {
          // Our corrector Taylor-integrates the coarser neighbour's stack
          // over our sub-interval.
          stackNeeded[info.neighbor] = 1;
        }
        faceOps[idx] = opsOf({mat, mesh.elements[info.neighbor].material, -1});
        continue;
      }

      // Boundary faces.
      if (info.bc == BoundaryType::kGravityFreeSurface && gravityOn &&
          elemMaterial[e].isAcoustic()) {
        rec.kind = FaceKind::kGravity;
        stackNeeded[e] = 1;
        // Aux index pre-assigned in discovery order (the per-run
        // GravityBoundary::addFace replay matches it).
        rec.aux = static_cast<int>(gravityFaces.size());
        gravityFaces.push_back({e, f});
        continue;
      }
      const BoundaryType folded =
          (info.bc == BoundaryType::kGravityFreeSurface)
              ? BoundaryType::kFreeSurface
              : info.bc;
      rec.kind = FaceKind::kBoundaryFolded;
      faceOps[idx] = opsOf({mat, -1, static_cast<int>(folded)});
    }
  }

  // ---- static kernel operands, filled once in cluster order: the
  // transposed star matrices (and their negation, the predictor operand)
  // and the pre-scaled, transposed, negated flux-solver matrices --------
  // The corrector only ever uses the flux-solver matrices negated (the
  // surface kernels subtract their product); storing them pre-negated
  // folds that sign into the GEMM operand.  Each product term flips sign
  // exactly, so results stay bitwise-identical.
  constexpr int stride = kNumQuantities * kNumQuantities;
  const std::size_t starSize = static_cast<std::size_t>(n) * 3 * stride;
  const std::size_t fluxSize = static_cast<std::size_t>(n) * 4 * stride;
  operandStorage_ =
      std::make_unique_for_overwrite<real[]>(2 * starSize + 2 * fluxSize);
  real* const starOut = operandStorage_.get();
  real* const negStarOut = starOut + starSize;
  real* const negFluxMinusOut = negStarOut + starSize;
  real* const negFluxPlusOut = negFluxMinusOut + fluxSize;
  starTB = ConstSpan<real>(starOut, starSize);
  negStarTB = ConstSpan<real>(negStarOut, starSize);
  negFluxMinusTB = ConstSpan<real>(negFluxMinusOut, fluxSize);
  negFluxPlusTB = ConstSpan<real>(negFluxPlusOut, fluxSize);

  // dst[i][j] = -(scale * m(j, i)): transposed, pre-scaled, negated.
  const auto storeNegT = [](const Matrix& m, real scale, real* dst) {
    for (int i = 0; i < kNumQuantities; ++i) {
      for (int j = 0; j < kNumQuantities; ++j) {
        dst[i * kNumQuantities + j] = -(scale * m(j, i));
      }
    }
  };

  // Every iteration writes all of its own ordered slots (zeros included)
  // and reads only the immutable discovery results, so the fill is
  // thread-count independent.
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
      const int e = orderedElements[i];
      const std::size_t oi = static_cast<std::size_t>(i);
      const auto g = gradXi(mesh, e);
      for (int c = 0; c < 3; ++c) {
        const Matrix star = starMatrix(elemMaterial[e], g[c]);
        real* dst = starOut + (oi * 3 + c) * stride;
        real* neg = negStarOut + (oi * 3 + c) * stride;
        for (int r = 0; r < kNumQuantities; ++r) {
          for (int j = 0; j < kNumQuantities; ++j) {
            dst[r * kNumQuantities + j] = star(j, r);
            neg[r * kNumQuantities + j] = -star(j, r);
          }
        }
      }
      for (int f = 0; f < 4; ++f) {
        const std::size_t idx = static_cast<std::size_t>(e) * 4 + f;
        real* negMinus = negFluxMinusOut + (oi * 4 + f) * stride;
        real* negPlus = negFluxPlusOut + (oi * 4 + f) * stride;
        if (faceOps[idx] < 0) {
          // Gravity / rupture faces use pointwise fluxes.
          std::fill_n(negMinus, stride, 0.0);
          std::fill_n(negPlus, stride, 0.0);
          continue;
        }
        const FaceRecord& rec = faceTable[oi * 4 + f];
        const FluxMatrices fm =
            faceFluxMatrices(ops[faceOps[idx]], mesh.faceNormal(e, f));
        storeNegT(fm.fMinus, rec.scale, negMinus);
        if (rec.kind == FaceKind::kRegular) {
          storeNegT(fm.fPlus, rec.scale, negPlus);
        } else {
          std::fill_n(negPlus, stride, 0.0);
        }
      }
    }
    tsanRelease();
  }
  tsanAcquire();

  // Seafloor recorder geometry: elastic side of every elastic-acoustic
  // face, in the same (e, f) discovery order as the uplift accumulators.
  for (int e = 0; e < n; ++e) {
    if (elemMaterial[e].isAcoustic()) {
      continue;
    }
    for (int f = 0; f < 4; ++f) {
      const FaceInfo& info = mesh.faces[e][f];
      if (info.neighbor < 0 || !elemMaterial[info.neighbor].isAcoustic()) {
        continue;
      }
      SeafloorFaceGeometry sf;
      sf.elem = e;
      sf.face = f;
      sf.qpX.resize(rm.nq);
      sf.qpY.resize(rm.nq);
      for (int i = 0; i < rm.nq; ++i) {
        const Vec3 xi = refFacePoint(f, rm.faceQuadS[i], rm.faceQuadT[i]);
        const Vec3 x = mesh.toPhysical(e, xi);
        sf.qpX[i] = x[0];
        sf.qpY[i] = x[1];
      }
      recordOf(e, f).seafloor = static_cast<int>(seafloorGeometry.size());
      seafloorGeometry.push_back(std::move(sf));
    }
  }

  // Per-cluster fault-face id lists (ascending by construction: the
  // rupture faces were discovered in ascending (e, f) order).
  faultFaceIdsOfCluster.assign(clusters.numClusters, {});
  for (int i = 0; i < static_cast<int>(ruptureFaces.size()); ++i) {
    faultFaceIdsOfCluster[clusters.cluster[ruptureFaces[i].elem]].push_back(i);
  }

  spatialIndex = std::make_unique<SpatialIndex>(mesh);

  assetHash = computeAssetHash(mesh, materialTable, cfg);
}

std::shared_ptr<const BatchedAssets> SimulationAssets::batchedAssets(
    int batchSize) const {
  const int key = batchSize > 0 ? batchSize : autoBatchSize(rm.nb, cfg.degree);
  {
    std::lock_guard<std::mutex> lock(batchedMutex_);
    const auto it = batchedCache_.find(key);
    if (it != batchedCache_.end()) {
      return it->second;
    }
  }

  // Build outside the lock (idempotent: a racing build produces identical
  // content and the first insert wins).  The operands are views of the
  // single asset copy; only the layout is built here.
  auto ba = std::make_shared<BatchedAssets>();
  ba->layout = ClusterBatchLayout(clusters, rm.nb, cfg.degree, key);
  if (ba->layout.elements() != orderedElements) {
    throw std::logic_error(
        "SimulationAssets: batch layout disagrees with the operand order");
  }
  ba->starTB = starTB;
  ba->negStarTB = negStarTB;
  ba->negFluxMinusTB = negFluxMinusTB;
  ba->negFluxPlusTB = negFluxPlusTB;

  std::lock_guard<std::mutex> lock(batchedMutex_);
  const auto [it, inserted] = batchedCache_.emplace(key, std::move(ba));
  (void)inserted;
  return it->second;
}

}  // namespace tsg
