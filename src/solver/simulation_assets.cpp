#include "solver/simulation_assets.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>

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

/// The inputs of one operand as raw bit patterns: a key compares bits,
/// not values, because +0 and -0 are different inputs to the builders.
template <std::size_t N>
using OperandKey = std::array<std::uint64_t, N>;

std::uint64_t bitsOf(real x) { return std::bit_cast<std::uint64_t>(x); }

struct OperandKeyHash {
  template <std::size_t N>
  std::size_t operator()(const OperandKey<N>& key) const {
    std::uint64_t h = 0;
    for (const std::uint64_t w : key) {
      h = (h ^ w) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return h;
  }
};

/// Ordered slot of the first slot with the same key; `firsts` collects
/// the slots that start a new key (the ones the fill computes).
template <std::size_t N>
int firstSlotOf(std::unordered_map<OperandKey<N>, int, OperandKeyHash>& seen,
                const OperandKey<N>& key, int slot, std::vector<int>& firsts) {
  const auto [it, inserted] = seen.emplace(key, slot);
  if (inserted) {
    firsts.push_back(slot);
  }
  return it->second;
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
  // canonical (e, f) order), the face-frame flux operators of every
  // material pair in use, and the source slot of every kernel operand ---
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

  // Operand sources: every mesh from the tensor-product mesher repeats
  // its element and face geometry, so the fill computes each distinct
  // operand once, at the first ordered slot with the same inputs, and
  // copies it to the others.  A star operand is keyed by (material id,
  // grad xi), a flux operand by (faceOps index, face normal, face scale).
  std::vector<int> starSource(n);  // [orderedElem]
  // [orderedElem*4 + f]; -1 on faces without a flux-solver matrix.
  std::vector<int> fluxSource(static_cast<std::size_t>(n) * 4, -1);
  std::vector<int> firstStars, firstFluxes;  // the slots pass 1 computes
  std::unordered_map<OperandKey<10>, int, OperandKeyHash> starSeen;
  std::unordered_map<OperandKey<5>, int, OperandKeyHash> fluxSeen;
  const auto keyStar = [&](int e) {
    const int oi = orderedIndexOf[e];
    OperandKey<10> key{static_cast<std::uint64_t>(mesh.elements[e].material)};
    const auto g = gradXi(mesh, e);
    for (int c = 0; c < 3; ++c) {
      for (int d = 0; d < 3; ++d) {
        key[1 + 3 * c + d] = bitsOf(g[c][d]);
      }
    }
    starSource[oi] = firstSlotOf(starSeen, key, oi, firstStars);
  };
  const auto keyFlux = [&](int e, int f, int opsIndex) {
    const int slot = orderedIndexOf[e] * 4 + f;
    const Vec3 normal = mesh.faceNormal(e, f);
    const OperandKey<5> key = {
        static_cast<std::uint64_t>(opsIndex), bitsOf(normal[0]),
        bitsOf(normal[1]), bitsOf(normal[2]), bitsOf(faceTable[slot].scale)};
    fluxSource[slot] = firstSlotOf(fluxSeen, key, slot, firstFluxes);
  };

  for (int e = 0; e < n; ++e) {
    const real volJ = 6.0 * mesh.volume(e);
    const int mat = mesh.elements[e].material;
    keyStar(e);
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
        keyFlux(e, f, faceOps[idx]);
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
      keyFlux(e, f, faceOps[idx]);
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

  // Pass 1 computes the first occurrence of every distinct operand, pass 2
  // copies it to the other slots with the same inputs and zeroes the flux
  // slots of faces without a flux-solver matrix.  Each slot is written
  // once, from the immutable discovery results, so the fill is
  // thread-count independent.
  const int numFirstStars = static_cast<int>(firstStars.size());
  const int numFirstFluxes = static_cast<int>(firstFluxes.size());
  constexpr std::size_t kStarBytes = 3 * stride * sizeof(real);
  constexpr std::size_t kFluxBytes = stride * sizeof(real);
  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static) nowait
    for (int k = 0; k < numFirstStars; ++k) {
      const std::size_t oi = static_cast<std::size_t>(firstStars[k]);
      const int e = orderedElements[oi];
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
    }
#pragma omp for schedule(static) nowait
    for (int k = 0; k < numFirstFluxes; ++k) {
      const std::size_t slot = static_cast<std::size_t>(firstFluxes[k]);
      const int e = orderedElements[slot / 4];
      const int f = static_cast<int>(slot % 4);
      const FaceRecord& rec = faceTable[slot];
      const FluxMatrices fm =
          faceFluxMatrices(ops[faceOps[static_cast<std::size_t>(e) * 4 + f]],
                           mesh.faceNormal(e, f));
      storeNegT(fm.fMinus, rec.scale, negFluxMinusOut + slot * stride);
      real* negPlus = negFluxPlusOut + slot * stride;
      if (rec.kind == FaceKind::kRegular) {
        storeNegT(fm.fPlus, rec.scale, negPlus);
      } else {
        std::fill_n(negPlus, stride, 0.0);
      }
    }
    tsanRelease();
#pragma omp barrier
    tsanAcquire();
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
      const std::size_t oi = static_cast<std::size_t>(i);
      const std::size_t src = static_cast<std::size_t>(starSource[i]);
      if (src != oi) {
        std::memcpy(starOut + oi * 3 * stride, starOut + src * 3 * stride,
                    kStarBytes);
        std::memcpy(negStarOut + oi * 3 * stride,
                    negStarOut + src * 3 * stride, kStarBytes);
      }
      for (std::size_t slot = oi * 4; slot < oi * 4 + 4; ++slot) {
        real* negMinus = negFluxMinusOut + slot * stride;
        real* negPlus = negFluxPlusOut + slot * stride;
        if (fluxSource[slot] < 0) {
          // Gravity / rupture faces use pointwise fluxes.
          std::fill_n(negMinus, stride, 0.0);
          std::fill_n(negPlus, stride, 0.0);
        } else if (static_cast<std::size_t>(fluxSource[slot]) != slot) {
          const std::size_t from =
              static_cast<std::size_t>(fluxSource[slot]) * stride;
          std::memcpy(negMinus, negFluxMinusOut + from, kFluxBytes);
          std::memcpy(negPlus, negFluxPlusOut + from, kFluxBytes);
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
