// Reproduces Fig. 4: distribution of elements over the rate-2 LTS
// clusters for the Palu mesh, plus the update-reduction factor (~30x, with
// >86% of elements in the 32-dt_min cluster) reported in Sec. 6.2.
//
// The mesh is the scaled synthetic Palu setup (see DESIGN.md): a thin,
// finely resolved low-wave-speed water layer above coarser elastic rock is
// exactly the configuration that spreads elements over many clusters.

#include <cstdio>

#include "common/table.hpp"
#include "palu_mesh_m.hpp"
#include "solver/time_clusters.hpp"

using namespace tsg;

int main() {
  const int degree = 5;  // the paper's production order
  const ScenarioBundle s = buildScenario(paluMeshMSpec(), degree);

  std::vector<Material> mats(s.mesh.numElements());
  for (int e = 0; e < s.mesh.numElements(); ++e) {
    mats[e] = s.materials[s.mesh.elements[e].material];
  }
  const ClusterLayout layout =
      buildClusters(s.mesh, mats, degree, 0.35, 2, 12);

  const auto hist = layout.histogram();
  const std::int64_t total = s.mesh.numElements();

  Table table({"cluster", "dt_over_dtmin", "elements", "fraction"});
  for (int c = 0; c < layout.numClusters; ++c) {
    table.row() << c << (1 << c) << static_cast<long long>(hist[c])
                << static_cast<real>(hist[c]) / static_cast<real>(total);
  }
  table.print("Fig. 4: elements per LTS cluster (synthetic Palu mesh)");
  table.writeCsv("lts_histogram.csv");

  const std::int64_t lts = layout.updatesPerMacroCycleLts();
  const std::int64_t gts = layout.updatesPerMacroCycleGts();
  const real reduction = static_cast<real>(gts) / static_cast<real>(lts);
  int dominant = 0;
  for (int c = 0; c < layout.numClusters; ++c) {
    if (hist[c] > hist[dominant]) {
      dominant = c;
    }
  }
  std::printf("\nDominant cluster: %d (dt = %d dt_min), holding %.1f%% of "
              "all elements\n",
              dominant, 1 << dominant,
              100.0 * static_cast<real>(hist[dominant]) /
                  static_cast<real>(total));
  std::printf("Element-update reduction LTS vs GTS: %.1fx\n", reduction);
  std::printf("Paper (mesh L): reduction ~30x; >86%% of elements in the "
              "32 dt_min cluster.\n");
  std::printf("dt_min = %.3e s; clusters = %d\n", layout.dtMin,
              layout.numClusters);
  return 0;
}
