#pragma once

// SimulationAssets: the immutable, shareable half of a simulation.
//
// Everything that is a pure function of (mesh, material table, structural
// solver parameters) lives here, built once and const-shared by reference
// between any number of per-run Simulation instances:
//
//  * geometry: the mesh, per-element materials, the point-location index;
//  * discretisation: basis reference matrices, the LTS ClusterLayout;
//  * static kernel operands in the form the kernels read -- transposed
//    star matrices (and their negation) and pre-scaled, negated per-face
//    Godunov flux matrices -- as an operand dictionary: each distinct
//    operand is stored once, and an int32 index per element (starIndex)
//    and per face slot (fluxIndex), in the cluster-contiguous element
//    order, names its entry.  Both backends read through the index, and
//    every batch size views the same dictionary;
//  * the face table: one record per face (kind, neighbour, aux index,
//    scale, seafloor recorder index) in the same cluster order, which
//    both backends read, and the elements whose derivative stack is read
//    outside their own predictor;
//  * boundary-face topology: gravity-surface faces, dynamic-rupture face
//    pairs (with their aux indices pre-assigned in the canonical order),
//    per-cluster fault-face id lists, seafloor recorder geometry;
//  * the batch layout of the batched backend, built per batch size on
//    request and cached.
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
// indices therefore coincide with the face table's aux values, and a run
// built from shared assets is bitwise identical to a standalone one.
// The face table and the operand indices come from a serial discovery
// pass; only the fill of the dictionary entries is threaded.
//
// Set-up cost and memory: a mesh from the tensor-product mesher repeats
// its element and face geometry (palu has 38 808 elements but 6 566
// distinct star inputs), so the discovery pass keys every operand by the
// bit pattern of its inputs -- (material id, grad xi) for a star operand,
// (flux operator set, face normal, face scale) for a flux operand -- and
// the dictionary holds the first occurrence of each key.  Every slot
// resolves to the bytes of a direct per-slot build; a mesh without
// repeats holds at most one entry per slot, no more operand bytes than a
// per-slot array (plus the 4-byte indices).

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
/// Per-run fields (friction law, kernel path, batch size, thread pinning)
/// are deliberately absent: sweeping them reuses the same assets.
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

/// One face of the face table, indexed [orderedElem*4 + f].
struct FaceRecord {
  FaceKind kind = FaceKind::kRegular;
  std::uint8_t neighborFace = 0, permutation = 0;
  // Neighbor cluster relation: 0 same cluster, 1 coarser, 2 finer.
  std::uint8_t relation = 0;
  int neighbor = -1;   // mesh element id
  int aux = -1;        // gravity/rupture face index
  int seafloor = -1;   // seafloorGeometry index
  real scale = 0;      // 2 A_f / |J|
};

/// The batching of the batched backend for one batch size.  The operand
/// members are views of the owning SimulationAssets' operand dictionary
/// (same names, same layout, indexed through SimulationAssets::starIndex
/// and fluxIndex), valid for as long as those assets live.  perfbench's
/// stage microbench reads these views directly and times the first
/// entries of each as a batch's lane operands.
struct BatchedAssets {
  ClusterBatchLayout layout;
  ConstSpan<real> starTB;          // SimulationAssets::starTB
  ConstSpan<real> negStarTB;       // SimulationAssets::negStarTB
  ConstSpan<real> negFluxMinusTB;  // SimulationAssets::negFluxMinusTB
  ConstSpan<real> negFluxPlusTB;   // SimulationAssets::negFluxPlusTB
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

  // Static kernel operands: the dictionary entries (views of
  // operandStorage_) and the index of each element's and face slot's
  // entry, in cluster order.  Flux matrices are pre-scaled by the face
  // scale and negated; negFluxPlus is zero on boundary faces, and the
  // slots of faces without a flux-solver matrix (gravity, rupture) name
  // one shared all-zero entry, the last.
  static constexpr std::size_t kFluxReals = kNumQuantities * kNumQuantities;
  static constexpr std::size_t kStarReals = 3 * kFluxReals;
  ConstSpan<real> starTB;          // [starEntry][3][81], transposed
  ConstSpan<real> negStarTB;       // -starTB (predictor operand)
  ConstSpan<real> negFluxMinusTB;  // [fluxEntry][81]
  ConstSpan<real> negFluxPlusTB;   // [fluxEntry][81]
  std::vector<std::int32_t> starIndex;  // [orderedElem] -> starEntry
  std::vector<std::int32_t> fluxIndex;  // [orderedElem*4 + f] -> fluxEntry

  /// An element's (ordered index oi) transposed star matrices, and the
  /// negated flux-solver matrices of one of its face slots (oi*4 + f).
  const real* starOf(std::size_t oi) const {
    return starTB.data() + static_cast<std::size_t>(starIndex[oi]) * kStarReals;
  }
  const real* negStarOf(std::size_t oi) const {
    return negStarTB.data() +
           static_cast<std::size_t>(starIndex[oi]) * kStarReals;
  }
  const real* negFluxMinusOf(std::size_t slot) const {
    return negFluxMinusTB.data() +
           static_cast<std::size_t>(fluxIndex[slot]) * kFluxReals;
  }
  const real* negFluxPlusOf(std::size_t slot) const {
    return negFluxPlusTB.data() +
           static_cast<std::size_t>(fluxIndex[slot]) * kFluxReals;
  }

  std::vector<FaceRecord> faceTable;             // [orderedElem*4 + f]
  std::vector<std::uint8_t> hasCoarserNeighbor;  // [elem]
  // Elements whose derivative stack is read outside their own predictor:
  // by a gravity or rupture face, or by a finer neighbour.  [elem]
  std::vector<std::uint8_t> stackNeeded;

  // Boundary-face topology, in aux-index order.
  std::vector<GravityFaceRef> gravityFaces;
  std::vector<RuptureFaceRef> ruptureFaces;
  std::vector<SeafloorFaceGeometry> seafloorGeometry;
  // Fault face ids grouped by the owning (minus-side) element's cluster,
  // ascending within a cluster; the scheduler's rupture wave iterates
  // exactly these lists.
  std::vector<std::vector<int>> faultFaceIdsOfCluster;

  std::unique_ptr<SpatialIndex> spatialIndex;

  std::uint64_t assetHash = 0;

  /// The batching for one batch size (<= 0 selects the auto size): its
  /// layout plus views of the operand dictionary above (no operand is
  /// copied per batch size).  Built on first request and cached;
  /// thread-safe, so concurrent ensemble members share one per batch
  /// size.
  std::shared_ptr<const BatchedAssets> batchedAssets(int batchSize) const;

 private:
  // The four dictionaries back to back, allocated uninitialised; the
  // threaded fill writes every entry exactly once, so the pages are first
  // touched in parallel instead of by a serial zero-fill pass.
  std::unique_ptr<real[]> operandStorage_;

  mutable std::mutex batchedMutex_;
  mutable std::map<int, std::shared_ptr<const BatchedAssets>> batchedCache_;
};

}  // namespace tsg
