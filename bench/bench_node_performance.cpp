// Reproduces Sec. 5.1 (node-level performance) as a model: the AMD-Rome
// NUMA table the cluster simulator uses, next to the paper's measured
// values.
//
// The paper's absolute numbers are for a dual-socket AMD Rome 7H12
// (peak 5325 GFLOPS): predictor-only 3360 GFLOPS (63% of peak) full node /
// 428 GFLOPS single NUMA domain; predictor+corrector 2053 GFLOPS (38%) /
// 376 GFLOPS.  The shipped kernels' rates on this host are measured by
// the benchmark (perfbench/README.md, kernels.predictor.gflops and
// kernels.corrector.gflops), not here.

#include <cstdio>

#include "common/table.hpp"
#include "perfmodel/machine.hpp"

using namespace tsg;

int main() {
  // The AMD Rome NUMA table used by the cluster simulator, calibrated to
  // the paper's Sec. 5.1 measurements.
  const MachineSpec rome = mahti();
  Table t({"configuration", "model_GFLOPS", "paper_GFLOPS", "pct_of_peak"});
  auto row = [&](const char* name, int numaSpanned, real paper) {
    const real eff = rome.kernelEfficiencySingleNuma /
                     (1.0 + rome.numaPenaltyPerDomain * (numaSpanned - 1));
    const real gflops = rome.peakGflopsPerNode * eff *
                        (static_cast<real>(numaSpanned) /
                         rome.node.numaDomains());
    t.row() << name << gflops << paper << 100.0 * eff;
  };
  row("pred+corr, single NUMA domain", 1, 376.0);
  row("pred+corr, one socket (4 domains)", 4, 1390.0);
  row("pred+corr, full node (8 domains)", 8, 2053.0);
  t.print("Sec. 5.1 AMD Rome NUMA model vs paper measurements");
  t.writeCsv("node_performance_model.csv");
  std::printf("\nPaper reference (AMD Rome 7H12, peak 5325 GFLOPS):\n"
              "  predictor only:       3360 GFLOPS full node (63%% of peak)\n"
              "  predictor+corrector:  2053 GFLOPS full node (38%% of peak)\n");
  return 0;
}
