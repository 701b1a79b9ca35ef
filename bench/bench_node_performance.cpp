// Reproduces Sec. 5.1 (node-level performance): a performance reproducer
// for the wave-propagation part of the scheme, measuring the predictor
// step alone and the full predictor+corrector update.
//
// The paper's absolute numbers are for a dual-socket AMD Rome 7H12
// (peak 5325 GFLOPS): predictor-only 3360 GFLOPS (63% of peak) full node /
// 428 GFLOPS single NUMA domain; predictor+corrector 2053 GFLOPS (38%) /
// 376 GFLOPS.  We measure the same kernels on this host (google-benchmark)
// and print the achieved fraction of this host's scalar peak next to the
// paper's fractions, plus the NUMA-model table the cluster simulator uses.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <vector>

#include "common/flops.hpp"
#include "common/table.hpp"
#include "kernels/element_kernels.hpp"
#include "kernels/reference_matrices.hpp"
#include "perfmodel/machine.hpp"
#include "physics/jacobians.hpp"
#include "physics/material.hpp"

using namespace tsg;

namespace {

struct Reproducer {
  const ReferenceMatrices& rm;
  int numElements;
  std::vector<real> dofs, stack, tInt, starT, negFluxT, scratch;

  explicit Reproducer(int degree, int elements)
      : rm(referenceMatrices(degree)), numElements(elements) {
    const int nbq = dofCount(rm);
    std::mt19937 rng(9);
    std::uniform_real_distribution<real> uni(-1, 1);
    dofs.resize(static_cast<std::size_t>(elements) * nbq);
    stack.resize(static_cast<std::size_t>(elements) * nbq * (degree + 1));
    tInt.resize(static_cast<std::size_t>(elements) * nbq);
    scratch.resize(nbq);
    for (auto& v : dofs) {
      v = uni(rng);
    }
    const Material m = Material::fromVelocities(2700, 6000, 3464);
    starT.resize(3 * 81);
    for (int c = 0; c < 3; ++c) {
      const Matrix a = jacobianMatrix(m, c);
      for (int i = 0; i < 9; ++i) {
        for (int j = 0; j < 9; ++j) {
          starT[c * 81 + i * 9 + j] = a(j, i) * 1e-4;
        }
      }
    }
    // surfaceKernel takes the pre-negated flux-solver matrix.
    negFluxT.resize(8 * 81);
    for (auto& v : negFluxT) {
      v = -(uni(rng) * 1e-4);
    }
  }

  void predictor(int e) {
    const int nbq = dofCount(rm);
    aderPredictor(rm, starT.data(), dofs.data() + static_cast<std::size_t>(e) * nbq,
                  stack.data() + static_cast<std::size_t>(e) * nbq * (rm.degree + 1),
                  scratch.data());
    taylorIntegrate(rm, stack.data() + static_cast<std::size_t>(e) * nbq *
                            (rm.degree + 1),
                    0.0, 1e-3, tInt.data() + static_cast<std::size_t>(e) * nbq);
  }

  void corrector(int e) {
    const int nbq = dofCount(rm);
    real* q = dofs.data() + static_cast<std::size_t>(e) * nbq;
    volumeKernel(rm, starT.data(),
                 tInt.data() + static_cast<std::size_t>(e) * nbq, q,
                 scratch.data());
    for (int f = 0; f < 4; ++f) {
      surfaceKernel(rm, rm.fluxLocal[f], negFluxT.data() + f * 81,
                    tInt.data() + static_cast<std::size_t>(e) * nbq, q,
                    scratch.data());
      const int nb = (e + 1) % numElements;
      surfaceKernel(rm, rm.fluxNeighbor[f][(f + 1) % 4][0],
                    negFluxT.data() + (4 + f) * 81,
                    tInt.data() + static_cast<std::size_t>(nb) * nbq, q,
                    scratch.data());
    }
  }
};

Reproducer& reproducer() {
  static Reproducer r(5, 512);  // order 5 as in the paper's production runs
  return r;
}

void BM_PredictorOnly(benchmark::State& state) {
  auto& r = reproducer();
  resetFlops();
  int e = 0;
  for (auto _ : state) {
    r.predictor(e);
    e = (e + 1) % r.numElements;
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(totalFlops()) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictorOnly);

void BM_PredictorPlusCorrector(benchmark::State& state) {
  auto& r = reproducer();
  resetFlops();
  int e = 0;
  for (auto _ : state) {
    r.predictor(e);
    r.corrector(e);
    e = (e + 1) % r.numElements;
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(totalFlops()) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictorPlusCorrector);

void printNumaModel() {
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
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printNumaModel();
  std::printf("\nPaper reference (AMD Rome 7H12, peak 5325 GFLOPS):\n"
              "  predictor only:       3360 GFLOPS full node (63%% of peak)\n"
              "  predictor+corrector:  2053 GFLOPS full node (38%% of peak)\n"
              "Expectation on this host: the predictor sustains a clearly\n"
              "higher fraction of peak than predictor+corrector (the\n"
              "corrector's neighbour gathers stress the memory system).\n");
  return 0;
}
