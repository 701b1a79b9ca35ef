#include "solver/simulation_assets.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>

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

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t fnv1aOf(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(h, &v, sizeof v);
}

}  // namespace

std::uint64_t computeAssetHash(const Mesh& mesh,
                               const std::vector<Material>& materialTable,
                               const AssetConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
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

  // ---- per-element static data (star matrices, LTS neighbour flags) ----
  starT.assign(
      static_cast<std::size_t>(n) * 3 * kNumQuantities * kNumQuantities, 0.0);
  hasCoarserNeighbor.assign(n, 0);
  for (int e = 0; e < n; ++e) {
    const auto g = gradXi(mesh, e);
    for (int c = 0; c < 3; ++c) {
      const Matrix star = starMatrix(elemMaterial[e], g[c]);
      real* dst = starT.data() + (static_cast<std::size_t>(e) * 3 + c) *
                                     kNumQuantities * kNumQuantities;
      for (int i = 0; i < kNumQuantities; ++i) {
        for (int j = 0; j < kNumQuantities; ++j) {
          dst[i * kNumQuantities + j] = star(j, i);  // transposed
        }
      }
    }
    for (int f = 0; f < 4; ++f) {
      const int nb = mesh.faces[e][f].neighbor;
      if (nb >= 0 && clusters.cluster[nb] > clusters.cluster[e]) {
        hasCoarserNeighbor[e] = 1;
      }
    }
  }

  // ---- per-face static data (flux matrices, face metadata, aux
  // pre-assignment in canonical (e, f) order) ---------------------------
  const int stride = kNumQuantities * kNumQuantities;
  faceKind.assign(static_cast<std::size_t>(n) * 4, FaceKind::kRegular);
  fluxMinusT.assign(static_cast<std::size_t>(n) * 4 * stride, 0.0);
  fluxPlusT.assign(static_cast<std::size_t>(n) * 4 * stride, 0.0);
  faceAux.assign(static_cast<std::size_t>(n) * 4, -1);
  faceScale.assign(static_cast<std::size_t>(n) * 4, 0.0);
  seafloorIndexOfFace.assign(static_cast<std::size_t>(n) * 4, -1);

  const bool gravityOn = cfg.gravity > 0;

  auto storeT = [stride](const Matrix& m, real scale, real* dst) {
    for (int i = 0; i < kNumQuantities; ++i) {
      for (int j = 0; j < kNumQuantities; ++j) {
        dst[i * kNumQuantities + j] = scale * m(j, i);
      }
    }
    (void)stride;
  };

  for (int e = 0; e < n; ++e) {
    const real volJ = 6.0 * mesh.volume(e);
    for (int f = 0; f < 4; ++f) {
      const std::size_t idx = static_cast<std::size_t>(e) * 4 + f;
      const FaceInfo& info = mesh.faces[e][f];
      const Vec3 normal = mesh.faceNormal(e, f);
      const real scale = 2.0 * mesh.faceArea(e, f) / volJ;
      faceScale[idx] = scale;

      if (info.neighbor >= 0) {
        if (info.bc == BoundaryType::kDynamicRupture) {
          faceKind[idx] = (e < info.neighbor) ? FaceKind::kRuptureMinus
                                              : FaceKind::kRupturePlus;
          if (e < info.neighbor) {
            // Aux index pre-assigned in discovery order: each run's
            // FaultSolver::addFace replay yields exactly these indices.
            const int fi = static_cast<int>(ruptureFaces.size());
            faceAux[idx] = fi;
            faceAux[static_cast<std::size_t>(info.neighbor) * 4 +
                    info.neighborFace] = fi;
            ruptureFaces.push_back({e, f, info.neighbor, info.neighborFace});
          }
          continue;
        }
        const auto fm = interfaceFluxMatrices(
            elemMaterial[e], elemMaterial[info.neighbor], normal);
        faceKind[idx] = FaceKind::kRegular;
        storeT(fm.fMinus, scale, fluxMinusT.data() + idx * stride);
        storeT(fm.fPlus, scale, fluxPlusT.data() + idx * stride);
        continue;
      }

      // Boundary faces.
      if (info.bc == BoundaryType::kGravityFreeSurface && gravityOn &&
          elemMaterial[e].isAcoustic()) {
        faceKind[idx] = FaceKind::kGravity;
        // Aux index pre-assigned in discovery order (the per-run
        // GravityBoundary::addFace replay matches it).
        faceAux[idx] = static_cast<int>(gravityFaces.size());
        gravityFaces.push_back({e, f});
        continue;
      }
      const BoundaryType folded =
          (info.bc == BoundaryType::kGravityFreeSurface)
              ? BoundaryType::kFreeSurface
              : info.bc;
      faceKind[idx] = FaceKind::kBoundaryFolded;
      const Matrix eff = boundaryFluxMatrix(elemMaterial[e], folded, normal);
      storeT(eff, scale, fluxMinusT.data() + idx * stride);
    }
  }

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
      seafloorIndexOfFace[static_cast<std::size_t>(e) * 4 + f] =
          static_cast<int>(seafloorGeometry.size());
      seafloorGeometry.push_back(std::move(sf));
    }
  }

  // Per-cluster fault-face id lists (ascending by construction: the
  // rupture faces were discovered in ascending (e, f) order).
  faultFaceIdsOfCluster.assign(clusters.numClusters, {});
  for (int i = 0; i < static_cast<int>(ruptureFaces.size()); ++i) {
    faultFaceIdsOfCluster[clusters.cluster[ruptureFaces[i].elem]].push_back(i);
  }
  faultFacesOfCluster.assign(clusters.numClusters, 0);
  for (int c = 0; c < clusters.numClusters; ++c) {
    faultFacesOfCluster[c] =
        static_cast<std::int64_t>(faultFaceIdsOfCluster[c].size());
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
  // content and the first insert wins).
  auto ba = std::make_shared<BatchedAssets>();
  ba->layout = ClusterBatchLayout(clusters, rm.nb, cfg.degree, key);
  const std::size_t nOrdered = ba->layout.elements().size();
  const int stride = kNumQuantities * kNumQuantities;
  ba->starTB.assign(nOrdered * 3 * stride, 0.0);
  ba->negStarTB.assign(nOrdered * 3 * stride, 0.0);
  ba->negFluxMinusTB.assign(nOrdered * 4 * stride, 0.0);
  ba->negFluxPlusTB.assign(nOrdered * 4 * stride, 0.0);
  ba->batchFaces.assign(nOrdered * 4, {});
  ba->stackNeeded.assign(mesh.numElements(), 0);
  for (std::size_t i = 0; i < nOrdered; ++i) {
    const int e = ba->layout.elements()[i];
    std::memcpy(ba->starTB.data() + i * 3 * stride,
                starT.data() + static_cast<std::size_t>(e) * 3 * stride,
                sizeof(real) * 3 * stride);
    for (int j = 0; j < 3 * stride; ++j) {
      ba->negStarTB[i * 3 * stride + j] = -ba->starTB[i * 3 * stride + j];
    }
    for (int f = 0; f < 4; ++f) {
      const std::size_t src = static_cast<std::size_t>(e) * 4 + f;
      const std::size_t dst = i * 4 + f;
      // The corrector only ever uses the flux-solver matrices negated
      // (reference: multiply, then negate the product); storing them
      // pre-negated folds that pass into the GEMM operand -- each product
      // term flips sign exactly, so results stay bitwise-identical.
      for (int j = 0; j < stride; ++j) {
        ba->negFluxMinusTB[dst * stride + j] = -fluxMinusT[src * stride + j];
        ba->negFluxPlusTB[dst * stride + j] = -fluxPlusT[src * stride + j];
      }
      BatchFaceInfo& info = ba->batchFaces[dst];
      const FaceInfo& mi = mesh.faces[e][f];
      info.kind = faceKind[src];
      info.neighbor = mi.neighbor;
      info.neighborFace = static_cast<std::uint8_t>(mi.neighborFace);
      info.permutation = static_cast<std::uint8_t>(mi.permutation);
      info.aux = faceAux[src];
      info.seafloor = seafloorIndexOfFace[src];
      info.scale = faceScale[src];
      if (mi.neighbor >= 0) {
        const int dc = clusters.cluster[mi.neighbor] - clusters.cluster[e];
        info.relation = dc == 0 ? 0 : (dc > 0 ? 1 : 2);
      }
      // Flag stacks read outside their own predictor: gravity and rupture
      // faces read this element's stack; a coarser neighbour's stack is
      // Taylor-integrated over our sub-interval in the corrector.
      if (info.kind == FaceKind::kGravity ||
          info.kind == FaceKind::kRuptureMinus ||
          info.kind == FaceKind::kRupturePlus) {
        ba->stackNeeded[e] = 1;
      } else if (info.kind == FaceKind::kRegular && mi.neighbor >= 0 &&
                 info.relation == 1) {
        ba->stackNeeded[mi.neighbor] = 1;
      }
    }
  }
  ba->batchScratchSize = static_cast<std::size_t>(cfg.degree + 3) * rm.nb *
                         kNumQuantities * ba->layout.batchSize();

  std::lock_guard<std::mutex> lock(batchedMutex_);
  const auto [it, inserted] = batchedCache_.emplace(key, std::move(ba));
  (void)inserted;
  return it->second;
}

}  // namespace tsg
