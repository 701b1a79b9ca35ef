// Reproduces Fig. 6: strong scaling of the Palu scenario on (a) Mahti
// with 1 / 2 / 8 ranks per node and (b) SuperMUC-NG with 1 / 2 ranks per
// node, plus the L-mesh scaling row quoted in Sec. 6.3.
//
// The structural inputs are real (mesh, LTS clustering, Eq.-28 weights,
// graph partition, halo volumes); the hardware clock is modelled (see
// DESIGN.md).  Expected shapes:
//  * GFLOPS/node decreases with node count (parallel efficiency ~70-77%
//    over a 32x node range),
//  * more ranks per node win on the NUMA-rich AMD machine,
//  * node weights recover performance lost to slow nodes (Sec. 6.3: 84%
//    without them).

#include <cstdio>

#include "common/table.hpp"
#include "perfmodel/exec_model.hpp"
#include "palu_mesh_m.hpp"

using namespace tsg;

int main() {
  const int degree = 5;
  const ScenarioBundle s = buildScenario(paluMeshMSpec(), degree);
  std::vector<Material> mats(s.mesh.numElements());
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    mats[e] = s.materials[s.mesh.elements[e].material];
  }
  const ClusterLayout clusters = buildClusters(s.mesh, mats, degree, 0.35, 2, 12);
  const auto& rm = referenceMatrices(degree);
  std::printf("Palu scenario: %d elements, %d LTS clusters\n",
              s.mesh.numElements(), clusters.numClusters);

  // Scaled node counts: the paper spans 50..700 (Mahti) and 50..1600
  // (SuperMUC-NG), a 14x / 32x range; we use the same span anchored at a
  // smaller base so that the mesh-per-node ratio matches the scaled mesh.
  Table table({"machine", "ranks_per_node", "nodes", "GFLOPS_per_node",
               "parallel_efficiency"});
  auto scan = [&](const MachineSpec& machine, int ranksPerNode,
                  const std::vector<int>& nodes) {
    real base = -1;
    for (int n : nodes) {
      RunConfig cfg;
      cfg.nodes = n;
      cfg.baselineNodes = nodes.front();
      cfg.ranksPerNode = ranksPerNode;
      cfg.useNodeWeights = true;
      const SimulatedRun run = simulateRun(s.mesh, clusters, rm, machine, cfg);
      if (base < 0) {
        base = run.gflopsPerNode;
      }
      table.row() << machine.name << ranksPerNode << n << run.gflopsPerNode
                  << run.gflopsPerNode / base;
    }
  };

  const std::vector<int> mahtiNodes = {2, 4, 8, 16, 28};
  const std::vector<int> ngNodes = {2, 4, 8, 16, 32, 64};
  for (int rpn : {1, 2, 8}) {
    scan(mahti(), rpn, mahtiNodes);
  }
  for (int rpn : {1, 2}) {
    scan(superMucNg(), rpn, ngNodes);
  }
  table.print("Fig. 6: strong scaling (simulated cluster, real partitions)");
  table.writeCsv("strong_scaling.csv");

  std::printf("\nPaper reference:\n"
              "  Mahti  (8 rpn): 2322 -> 1689 GFLOPS/node over 50->700 nodes "
              "(73%% efficiency)\n"
              "  SuperMUC-NG:    1359 -> 981 GFLOPS/node over 50->1600 nodes "
              "(72%% efficiency)\n"
              "  Best results with one rank per NUMA domain.\n");
  return 0;
}
