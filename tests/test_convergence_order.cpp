// Physics-regression pin for the kernel pipeline: ADER-DG of degree N
// must converge at order N+1 against analytic solutions (paper Sec. 6.1,
// "preliminary convergence analyses with respect to analytic solutions").
// A kernel bug that preserves stability but perturbs the discretisation
// (wrong star matrix slot, off-by-one in the derivative stack, a flux
// matrix applied to the wrong lane) degrades the measured order long
// before it produces NaNs -- so the suite fails if the least-squares
// slope of log(error) vs log(h) drops below N + 0.5, for two polynomial
// degrees and both kernel paths (reference, batched).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/plane_wave.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

struct ConvergencePoint {
  real h;
  real error;
};

real runCase(const AnalyticCase& c, int degree, KernelPath path, real tEnd) {
  SolverConfig cfg;
  cfg.degree = degree;
  cfg.gravity = 0;
  cfg.kernelPath = path;
  Simulation sim(c.mesh, c.materials, cfg);
  sim.setInitialCondition([&](const Vec3& x, int) { return c.exact(x, 0.0); });
  sim.advanceTo(tEnd);
  return solutionError(sim, c, sim.time());
}

/// Least-squares slope of log(error) against log(h).
real fitOrder(const std::vector<ConvergencePoint>& pts) {
  real sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const ConvergencePoint& p : pts) {
    const real x = std::log(p.h);
    const real y = std::log(p.error);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const real n = static_cast<real>(pts.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

void expectOrder(AnalyticCase (*makeCase)(int), int degree, KernelPath path) {
  const real tEnd = 0.1;
  std::vector<ConvergencePoint> pts;
  for (int cells : {2, 3, 4}) {
    const AnalyticCase c = makeCase(cells);
    pts.push_back({real(1) / cells, runCase(c, degree, path, tEnd)});
  }
  // Errors must actually shrink under refinement...
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].error, pts[i - 1].error)
        << "degree " << degree << " cells step " << i;
  }
  // ...at (at least) the design order N+1, with half an order of slack
  // for pre-asymptotic effects on these coarse meshes.
  const real order = fitOrder(pts);
  EXPECT_GE(order, degree + 0.5)
      << "degree " << degree << " " << kernelPathName(path) << ": errors "
      << pts[0].error << " " << pts[1].error << " " << pts[2].error;
}

TEST(ConvergenceOrder, AcousticDegree2Batched) {
  expectOrder(acousticStandingWaveCase, 2, KernelPath::kBatched);
}

TEST(ConvergenceOrder, AcousticDegree2Reference) {
  expectOrder(acousticStandingWaveCase, 2, KernelPath::kReference);
}

TEST(ConvergenceOrder, ElasticDegree3Batched) {
  expectOrder(elasticStandingWaveCase, 3, KernelPath::kBatched);
}

TEST(ConvergenceOrder, ElasticDegree3Reference) {
  expectOrder(elasticStandingWaveCase, 3, KernelPath::kReference);
}

// The two pipelines must not merely both converge -- on identical input
// they must produce identical errors (they are the same discretisation;
// see test_batched_kernels.cpp for the bitwise statement).
TEST(ConvergenceOrder, PathsAgreeOnError) {
  const AnalyticCase c = elasticStandingWaveCase(3);
  const real eb = runCase(c, 2, KernelPath::kBatched, 0.1);
  const real er = runCase(c, 2, KernelPath::kReference, 0.1);
  EXPECT_NEAR(eb, er, 1e-12 * (1 + std::abs(er)));
}

}  // namespace
}  // namespace tsg
