// Run-health monitor: NaN/Inf and energy blow-up detection with the
// typed SolverDivergedError, failure VTK dump, and incident JSON report.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "solver/health_monitor.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

bool fileExists(const std::string& path) {
  return std::ifstream(path).is_open();
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<Simulation> pulseSim(real cflFraction) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1000, 3);
  spec.yLines = uniformLine(0, 1000, 3);
  spec.zLines = uniformLine(-800, 0, 4);
  spec.material = [](const Vec3& c) { return c[2] > -300 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.cflFraction = cflFraction;
  cfg.deterministic = true;
  auto sim = std::make_unique<Simulation>(
      buildBoxMesh(spec),
      std::vector<Material>{Material::fromVelocities(2700, 6000, 3464),
                            Material::acoustic(1000, 1500)},
      cfg);
  sim->setInitialCondition([](const Vec3& x, int material) {
    std::array<real, 9> q{};
    if (material == 1) {
      const real p = 1e4 * std::exp(-norm2(x - Vec3{500, 500, -150}) / 2e4);
      q[kSxx] = q[kSyy] = q[kSzz] = -p;
    }
    return q;
  });
  return sim;
}

TEST(Health, HealthyRunDoesNotTrigger) {
  auto sim = pulseSim(0.35);
  HealthMonitorConfig hc;
  hc.outputPrefix = "health_ok";
  HealthMonitor monitor(hc);
  monitor.attach(*sim);
  EXPECT_NO_THROW(sim->advanceTo(5 * sim->macroDt() - 1e-12));
  EXPECT_GE(monitor.energyHistory().size(), 5u);
  EXPECT_FALSE(fileExists("health_ok_incident.json"));
}

TEST(Health, InjectedNaNTriggersWithinOneMacroCycleWithDumpAndReport) {
  std::remove("health_nan_failure.vtk");
  std::remove("health_nan_incident.json");
  auto sim = pulseSim(0.35);
  HealthMonitorConfig hc;
  hc.outputPrefix = "health_nan";
  HealthMonitor monitor(hc);
  monitor.attach(*sim);
  sim->advanceTo(sim->macroDt() - 1e-12);
  const std::int64_t tickBefore = sim->tick();

  sim->debugInjectNonFinite(3);
  try {
    sim->advanceTo(10 * sim->macroDt());
    FAIL() << "NaN state did not trigger the health monitor";
  } catch (const SolverDivergedError& e) {
    // Within one macro cycle of the injection, never a silent NaN run.
    EXPECT_LE(sim->tick(), tickBefore + sim->clusters().ticksPerMacro());
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
    EXPECT_GE(e.report().element, 0);
    EXPECT_GE(e.report().cluster, 0);
    EXPECT_EQ(e.report().tick, sim->tick());
  }
  EXPECT_TRUE(fileExists("health_nan_failure.vtk"));
  ASSERT_TRUE(fileExists("health_nan_incident.json"));
  const std::string json = fileBytes("health_nan_incident.json");
  EXPECT_NE(json.find("\"reason\""), std::string::npos);
  EXPECT_NE(json.find("non-finite DOFs"), std::string::npos);
  EXPECT_NE(json.find("\"energy_history\""), std::string::npos);
  std::remove("health_nan_failure.vtk");
  std::remove("health_nan_incident.json");
}

TEST(Health, CflInstabilityTriggersEnergyGrowthCheck) {
  // An absurd CFL fraction makes the scheme unconditionally unstable:
  // the energy-growth guard must fire (before or at the point the state
  // degenerates to non-finite), aborting at a macro-cycle boundary.
  std::remove("health_cfl_incident.json");
  auto sim = pulseSim(3.0);
  HealthMonitorConfig hc;
  hc.outputPrefix = "health_cfl";
  HealthMonitor monitor(hc);
  monitor.attach(*sim);
  EXPECT_THROW(sim->advanceTo(200 * sim->macroDt()), SolverDivergedError);
  EXPECT_TRUE(fileExists("health_cfl_incident.json"));
  std::remove("health_cfl_failure.vtk");
  std::remove("health_cfl_incident.json");
}

TEST(Health, DumplessModeStillThrowsTyped) {
  auto sim = pulseSim(0.35);
  HealthMonitorConfig hc;
  hc.outputPrefix = "health_quiet";
  hc.writeFailureDump = false;
  HealthMonitor monitor(hc);
  sim->debugInjectNonFinite(0);
  EXPECT_THROW(monitor.check(*sim), SolverDivergedError);
  EXPECT_FALSE(fileExists("health_quiet_incident.json"));
}

TEST(Health, IncidentEmbedsRunMetadataAndMetrics) {
  std::remove("health_meta_failure.vtk");
  std::remove("health_meta_incident.json");
  auto sim = pulseSim(0.35);
  HealthMonitorConfig hc;
  hc.outputPrefix = "health_meta";
  HealthMonitor monitor(hc);
  monitor.setMetricsProvider(
      [] { return std::string("{\"t\":1.25,\"max_abs_eta\":0.5}"); });
  sim->debugInjectNonFinite(0);
  try {
    monitor.check(*sim);
    FAIL() << "NaN state did not trigger the health monitor";
  } catch (const SolverDivergedError& e) {
    EXPECT_EQ(e.report().backend, sim->backend().name());
    EXPECT_EQ(e.report().configHash, sim->configHash());
    EXPECT_EQ(e.report().metricsJson, "{\"t\":1.25,\"max_abs_eta\":0.5}");
  }
  ASSERT_TRUE(fileExists("health_meta_incident.json"));
  const std::string json = fileBytes("health_meta_incident.json");
  EXPECT_NE(json.find("\"backend\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kernel_path\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"config_hash\": \"0x"), std::string::npos) << json;
  EXPECT_NE(json.find("\"metrics\": {\"t\":1.25"), std::string::npos) << json;
  std::remove("health_meta_failure.vtk");
  std::remove("health_meta_incident.json");
}

TEST(Health, IncidentWithoutProviderEmitsNullMetrics) {
  HealthReport r;
  r.reason = "x";
  const std::string json = incidentJson(r);
  EXPECT_NE(json.find("\"metrics\": null"), std::string::npos) << json;
}

TEST(Health, IncidentJsonEscapesAndEncodesNonFinite) {
  HealthReport r;
  r.reason = "bad \"quoted\" value";
  r.time = 1.5;
  r.tick = 12;
  r.energyHistory = {1.0, std::numeric_limits<real>::quiet_NaN(),
                     std::numeric_limits<real>::infinity()};
  const std::string json = incidentJson(r);
  EXPECT_NE(json.find("bad \\\"quoted\\\" value"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tick\": 12"), std::string::npos) << json;
}

}  // namespace
}  // namespace tsg
