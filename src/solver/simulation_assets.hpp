#pragma once

// SimulationAssets: the immutable, shareable half of a simulation.
//
// Everything that is a pure function of (mesh, material table, structural
// solver parameters) lives here, built once and const-shared by reference
// between any number of per-run Simulation instances:
//
//  * geometry: the mesh, per-element materials, the point-location index;
//  * discretisation: basis reference matrices, the LTS ClusterLayout;
//  * static kernel operands, stored once in the cluster-contiguous
//    element order and in the form the kernels read: transposed star
//    matrices (and their negation) and pre-scaled, negated per-face
//    Godunov flux matrices; both backends index them through
//    orderedIndexOf, and every batch size views the same storage;
//  * face metadata (kind / aux index / scale / seafloor recorder index),
//    indexed by mesh element;
//  * boundary-face topology: gravity-surface faces, dynamic-rupture face
//    pairs (with their aux indices pre-assigned in the canonical order),
//    per-cluster fault-face id lists, seafloor recorder geometry;
//  * the per-batch-size batching (layout, batch-ordered face metadata,
//    scratch size), built on first request and cached.
//
// Everything per-run -- DOFs, eta, friction state, uplift accumulators,
// receivers, the clock -- stays in Simulation/SolverState.  The ensemble
// driver (src/ensemble/) exploits this split: N sweep members share one
// SimulationAssets, so per-member setup touches only run state.
//
// Determinism contract: the asset builder assigns gravity and rupture aux
// indices in exactly the (element, face) iteration order the pre-split
// Simulation used, and each run *replays* its GravityBoundary / FaultSolver
// construction over the recorded face lists in that same order.  Replayed
// indices therefore coincide with the precomputed faceAux values, and a
// run built from shared assets is bitwise identical to a standalone one.
// Face kinds and aux indices come from a serial discovery pass; only the
// operand fill, where every element writes its own slots, is threaded.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/span.hpp"
#include "geometry/mesh.hpp"
#include "geometry/spatial_index.hpp"
#include "kernels/batch_layout.hpp"
#include "kernels/reference_matrices.hpp"
#include "physics/material.hpp"
#include "solver/solver_config.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

enum class FaceKind : std::uint8_t {
  kRegular,
  kBoundaryFolded,  // free surface / absorbing via a single flux matrix
  kGravity,
  kRuptureMinus,
  kRupturePlus,
};

/// The structural subset of SolverConfig that determines asset content.
/// Per-run fields (friction law, kernel path, batch size, determinism,
/// pinning) are deliberately absent: sweeping them reuses the same assets.
struct AssetConfig {
  int degree = 2;
  real cflFraction = 0.35;
  real gravity = 9.81;
  int ltsRate = 2;
  int maxClusters = 12;

  static AssetConfig fromSolverConfig(const SolverConfig& cfg) {
    return {cfg.degree, cfg.cflFraction, cfg.gravity, cfg.ltsRate,
            cfg.maxClusters};
  }
  bool matches(const SolverConfig& cfg) const {
    return degree == cfg.degree && cflFraction == cfg.cflFraction &&
           gravity == cfg.gravity && ltsRate == cfg.ltsRate &&
           maxClusters == cfg.maxClusters;
  }
};

/// One gravity-surface boundary face, recorded in aux-index order.
struct GravityFaceRef {
  int elem = -1, face = -1;
};

/// One dynamic-rupture face pair (minus side), recorded in aux-index
/// order; each run replays FaultSolver::addFace over this list.
struct RuptureFaceRef {
  int elem = -1, face = -1;          // minus side
  int neighbor = -1, neighborFace = -1;  // plus side
};

/// Static geometry of one seafloor uplift recorder face (the elastic side
/// of an elastic-acoustic interface); the per-run uplift accumulator
/// lives in SolverState::seafloorFaces.
struct SeafloorFaceGeometry {
  int elem = -1, face = -1;
  std::vector<real> qpX, qpY;  // [nq] physical quadrature points
};

/// Batch-ordered face metadata of the batched pipeline.
struct BatchFaceInfo {
  FaceKind kind = FaceKind::kRegular;
  std::uint8_t neighborFace = 0, permutation = 0;
  // Neighbor cluster relation: 0 same cluster, 1 coarser, 2 finer.
  std::uint8_t relation = 0;
  int neighbor = -1;   // mesh element id
  int aux = -1;        // gravity/rupture face index
  int seafloor = -1;   // seafloorFaces index
  real scale = 0;
};

/// The batching of the batched backend for one batch size.  The operand
/// members are views of the owning SimulationAssets' single copy (same
/// names, same layout), valid for as long as those assets live.
struct BatchedAssets {
  ClusterBatchLayout layout;
  std::vector<BatchFaceInfo> batchFaces;  // [orderedElem*4 + f]
  ConstSpan<real> starTB;                 // SimulationAssets::starTB
  ConstSpan<real> negStarTB;              // SimulationAssets::negStarTB
  ConstSpan<real> negFluxMinusTB;         // SimulationAssets::negFluxMinusTB
  ConstSpan<real> negFluxPlusTB;          // SimulationAssets::negFluxPlusTB
  // Mesh elements whose derivative stack is read outside their own
  // predictor (gravity/rupture faces, coarser LTS neighbours).
  std::vector<std::uint8_t> stackNeeded;  // [mesh elem]
  // Tile scratch of the batched pipeline ((degree+3) tiles of nb*9*B).
  std::size_t batchScratchSize = 0;
};

/// FNV-1a key over mesh content + material table + structural config;
/// equal keys mean the same SimulationAssets content (the ensemble asset
/// cache and the checkpoint header both use it).
std::uint64_t computeAssetHash(const Mesh& mesh,
                               const std::vector<Material>& materialTable,
                               const AssetConfig& cfg);

class SimulationAssets {
 public:
  /// Build all static data.  The mesh and table are copied/moved in; the
  /// reference matrices are the process-wide per-degree singletons.
  SimulationAssets(Mesh mesh, std::vector<Material> materialTable,
                   const AssetConfig& cfg);

  SimulationAssets(const SimulationAssets&) = delete;
  SimulationAssets& operator=(const SimulationAssets&) = delete;

  // ---- immutable content (read-only by construction: every consumer
  // holds a const SimulationAssets) ------------------------------------
  AssetConfig cfg;
  Mesh mesh;
  std::vector<Material> materialTable;
  std::vector<Material> elemMaterial;  // resolved per element
  const ReferenceMatrices& rm;
  ClusterLayout clusters;
  int nbq = 0;                  // nb * 9, reals per modal block
  std::size_t scratchSize = 0;  // per-element kernel scratch [reals]

  // Cluster-contiguous element order (the concatenated cluster element
  // lists, which every ClusterBatchLayout keeps) and its inverse.
  std::vector<int> orderedElements;  // [orderedElem] -> mesh elem
  std::vector<int> orderedIndexOf;   // [mesh elem] -> orderedElem

  // Static kernel operands, in cluster order (views of operandStorage_).
  // Flux matrices are pre-scaled by faceScale and negated; they are zero
  // on faces without a flux-solver matrix (gravity, rupture; fluxPlus on
  // boundary faces).
  ConstSpan<real> starTB;          // [orderedElem][3][81], transposed
  ConstSpan<real> negStarTB;       // -starTB (predictor operand)
  ConstSpan<real> negFluxMinusTB;  // [orderedElem*4 + f][81]
  ConstSpan<real> negFluxPlusTB;   // [orderedElem*4 + f][81]

  std::vector<std::uint8_t> hasCoarserNeighbor;  // [elem]

  // Static per-face metadata, indexed [elem*4 + f].
  std::vector<FaceKind> faceKind;
  std::vector<int> faceAux;      // gravity/rupture index (pre-assigned)
  std::vector<real> faceScale;   // 2 A_f / |J|
  std::vector<int> seafloorIndexOfFace;  // seafloorGeometry index or -1

  // Boundary-face topology, in aux-index order.
  std::vector<GravityFaceRef> gravityFaces;
  std::vector<RuptureFaceRef> ruptureFaces;
  std::vector<SeafloorFaceGeometry> seafloorGeometry;
  // Fault face ids grouped by the owning (minus-side) element's cluster,
  // ascending within a cluster; the scheduler's rupture wave iterates
  // exactly these lists.
  std::vector<std::vector<int>> faultFaceIdsOfCluster;
  std::vector<std::int64_t> faultFacesOfCluster;

  std::unique_ptr<SpatialIndex> spatialIndex;

  std::uint64_t assetHash = 0;

  /// The batching for one batch size (<= 0 selects the auto size): its
  /// layout, batch-ordered face metadata and scratch size, plus views of
  /// the one operand copy above (no operand is copied per batch size).
  /// Built on first request and cached; thread-safe, so concurrent
  /// ensemble members share one per batch size.
  std::shared_ptr<const BatchedAssets> batchedAssets(int batchSize) const;

 private:
  // The four operand arrays back to back, allocated uninitialised: the
  // threaded fill writes every slot exactly once, so the pages are first
  // touched in parallel instead of by a serial zero-fill pass.
  std::unique_ptr<real[]> operandStorage_;

  mutable std::mutex batchedMutex_;
  mutable std::map<int, std::shared_ptr<const BatchedAssets>> batchedCache_;
};

}  // namespace tsg
