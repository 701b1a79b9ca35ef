// Performance-report plumbing, through the wall-owner PerfThreadRecorder
// the scheduler uses:
//  * the "tsg-perf-1" report carries busy_seconds and wall_seconds per
//    phase and in total, and no `seconds` alias,
//  * host metadata appears only when provided,
//  * the chrome-trace buffer holds at most its event cap, counting phase
//    regions and named events together,
//  * the fleet roll-up ("tsg-fleetperf-1") aggregates member phase
//    stats into quantiles and counts degraded/failed members honestly.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ensemble/ensemble_runner.hpp"
#include "ensemble/fleet_perf.hpp"
#include "perf/host_metadata.hpp"
#include "perf/perf_monitor.hpp"

namespace tsg {
namespace {

/// Busy-wait long enough for the steady clock to register nonzero time.
void spinABit() {
  volatile double acc = 0;
  for (int i = 0; i < 200000; ++i) {
    acc = acc + 1e-9;
  }
  (void)acc;
}

/// Record `waves` waves per phase on one cluster through a wall-owner
/// recorder, then flush once -- one worker's macro cycle.  PerfMonitor
/// holds a mutex, so it is filled in place rather than returned.
void recordWaves(PerfMonitor& m, int waves = 1) {
  PerfThreadRecorder rec(&m, /*numClusters=*/1, /*wallOwner=*/true);
  for (int w = 0; w < waves; ++w) {
    for (int p = 0; p < kNumPhases; ++p) {
      const Phase phase = static_cast<Phase>(p);
      rec.waveBegin();
      rec.begin();
      spinABit();
      rec.end(phase, 0, /*elements=*/64, /*bytesEstimate=*/64 * 4096);
      rec.waveEnd(phase);
    }
  }
  rec.flush(/*thread=*/0);
}

PerfReportMeta minimalMeta() {
  PerfReportMeta meta;
  meta.scenario = "unit";
  meta.kernelPath = "batched";
  meta.backend = "batched";
  meta.degree = 2;
  meta.threads = 1;
  meta.elements = 64;
  return meta;
}

std::size_t countOf(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------- tsg-perf-1

TEST(PerfReport, EmitsBusyAndWallSecondsWithoutCompatAlias) {
  PerfMonitor m;
  recordWaves(m);
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase ph = static_cast<Phase>(p);
    EXPECT_GT(m.total(ph).seconds, 0.0) << phaseName(ph);
    // The wave bracket encloses the busy bracket.
    EXPECT_GE(m.wallSeconds(ph), m.total(ph).seconds) << phaseName(ph);
  }
  EXPECT_DOUBLE_EQ(m.totalWallSeconds(),
                   m.wallSeconds(Phase::kPredictor) +
                       m.wallSeconds(Phase::kRuptureFlux) +
                       m.wallSeconds(Phase::kCorrector));

  const std::string json = perfReportJson(m, minimalMeta());
  EXPECT_NE(json.find("\"schema\": \"tsg-perf-1\""), std::string::npos);
  // Total, three phases, one cluster per phase.
  EXPECT_EQ(countOf(json, "\"busy_seconds\""), 1u + 2 * kNumPhases);
  EXPECT_EQ(countOf(json, "\"wall_seconds\""), 1u + kNumPhases);
  // No spans were recorded, so no object carries a bare `seconds`.
  EXPECT_EQ(json.find("\"seconds\""), std::string::npos);
}

TEST(PerfReport, HostMetadataEmittedOnlyWhenProvided) {
  PerfMonitor m;
  recordWaves(m);
  const std::string bare = perfReportJson(m, minimalMeta());
  EXPECT_EQ(bare.find("\"host\""), std::string::npos);

  PerfReportMeta meta = minimalMeta();
  meta.host = collectHostMetadata();
  ASSERT_FALSE(meta.host.empty());
  EXPECT_NE(meta.host.count("nproc"), 0u);
  const std::string withHost = perfReportJson(m, meta);
  EXPECT_NE(withHost.find("\"host\""), std::string::npos);
  EXPECT_NE(withHost.find("\"nproc\""), std::string::npos);
}

// ------------------------------------------------------ chrome trace

TEST(PerfReport, TraceBufferHoldsAtMostMaxEvents) {
  PerfMonitor m;
  m.enableTrace(/*maxEvents=*/4);
  for (int i = 0; i < 3; ++i) {
    const double t0 = PerfMonitor::clockSeconds();
    m.recordSpan("unit_span", t0, t0 + 1e-3);
  }
  // Four waves x three phases of kernel events against one free slot.
  recordWaves(m, /*waves=*/4);
  m.instant("unit_instant", 1);  // buffer full: dropped

  const std::string path = "perf_trace_cap_trace.json";
  m.writeChromeTrace(path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());

  // The head is kept: the three spans, then the first kernel event.
  EXPECT_EQ(countOf(text.str(), "\"ph\":\"X\""), 4u);
  EXPECT_EQ(countOf(text.str(), "\"cat\":\"phase\""), 1u);
  EXPECT_EQ(countOf(text.str(), "\"ph\":\"i\""), 0u);
  // Aggregates are not capped.
  EXPECT_EQ(m.spanStats().at("unit_span").invocations, 3u);
  EXPECT_EQ(m.total(Phase::kPredictor).invocations, 4u);
}

// -------------------------------------------------- tsg-fleetperf-1

TEST(FleetPerf, AggregatesPhaseQuantilesAcrossMembers) {
  EnsembleResult result;
  result.wallSeconds = 4.0;
  result.assetsBuilt = 1;
  result.assetCacheHits = 2;
  result.assetBuildSeconds = 0.5;
  result.members.resize(3);
  for (int i = 0; i < 3; ++i) {
    MemberOutcome& m = result.members[i];
    m.index = i;
    m.prefix = "fleet_member_" + std::to_string(i);
    m.wallSeconds = 1.0 + i;
  }
  // Members 0 and 1 measured; member 2 failed.
  for (int i = 0; i < 2; ++i) {
    MemberOutcome& m = result.members[i];
    m.ok = true;
    // Binary-exact values: jsonNumber prints %.17g verbatim.
    m.result.perfPhases = {
        {"predictor", 0.25 + 0.25 * i, 0.125 + 0.125 * i, 10.0 + i},
        {"corrector", 0.5, 0.25, 5.0},
    };
  }
  result.members[2].error = "diverged";

  const std::string json = fleetPerfJson(result);
  EXPECT_NE(json.find("\"schema\": \"tsg-fleetperf-1\""), std::string::npos);
  EXPECT_NE(json.find("\"members_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"members_ok\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"members_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"members_with_perf\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"predictor\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"corrector\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"median\""), std::string::npos);
  // Predictor busy quantiles of {0.25, 0.5}.
  EXPECT_NE(json.find("\"min\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 0.5"), std::string::npos);
  // Asset-cache economics.
  EXPECT_NE(json.find("\"builds\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"seconds_per_build\": 0.5"), std::string::npos);
  // Member drill-down: perf reports referenced only where they exist.
  EXPECT_NE(json.find("fleet_member_0_perf.json"), std::string::npos);
  EXPECT_EQ(json.find("fleet_member_2_perf.json"), std::string::npos);
}

}  // namespace
}  // namespace tsg
