// Performance-report plumbing, through the wall-owner PerfThreadRecorder
// the scheduler uses:
//  * the "tsg-perf-1" report carries busy_seconds and wall_seconds per
//    phase and in total, and no `seconds` alias,
//  * host metadata carries the core count and the building compiler,
//  * the chrome-trace buffer holds at most its event cap, counting phase
//    regions and named events together.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

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

TEST(PerfReport, HostMetadataCarriesNprocAndCompiler) {
  const auto host = collectHostMetadata();
  EXPECT_NE(host.count("nproc"), 0u);
  ASSERT_NE(host.count("compiler"), 0u);
  EXPECT_EQ(host.at("compiler"), __VERSION__);
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

}  // namespace
}  // namespace tsg
