#include "perf/perf_monitor.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/flops.hpp"
#include "common/json.hpp"
#include "io/atomic_file.hpp"

namespace tsg {

namespace {

double nowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

std::string jsonString(const std::string& s) { return jsonQuote(s); }

/// The legacy begin/end bracket shares one t0_/flops0_ pair: concurrent
/// callers inside a parallel region would silently interleave and produce
/// garbage seconds/FLOPs.  Debug builds fail fast instead.
void assertSerialPhaseApi() {
#ifdef _OPENMP
  assert(!omp_in_parallel() &&
         "PerfMonitor::beginPhase/endPhase are orchestrating-thread-only; "
         "use PerfThreadRecorder inside parallel regions");
#endif
}

/// Trace tid of the named-span "run/io" track: keeps orchestration spans
/// off the per-cluster kernel rows without colliding with cluster ids.
constexpr int kRunTrackTid = 999;

}  // namespace

const char* phaseName(Phase p) {
  switch (p) {
    case Phase::kPredictor:
      return "predictor";
    case Phase::kRuptureFlux:
      return "rupture_flux";
    case Phase::kCorrector:
      return "corrector";
  }
  return "unknown";
}

PerfMonitor::PerfMonitor() : epoch_(nowSeconds()) {}

const double PerfMonitor::kZeroWall[kNumPhases] = {0, 0, 0};

void PerfMonitor::ensureCluster(int phase, int cluster) {
  if (static_cast<int>(stats_[phase].size()) <= cluster) {
    stats_[phase].resize(cluster + 1);
  }
}

void PerfMonitor::beginPhase(Phase p, int cluster) {
  (void)p;
  (void)cluster;
  assertSerialPhaseApi();
  flops0_ = totalFlops();
  t0_ = nowSeconds();
}

void PerfMonitor::endPhase(Phase p, int cluster, std::uint64_t elements,
                           std::uint64_t bytesEstimate) {
  assertSerialPhaseApi();
  const double t1 = nowSeconds();
  const std::uint64_t flops1 = totalFlops();
  const int pi = static_cast<int>(p);
  ensureCluster(pi, cluster);
  PhaseStats& s = stats_[pi][cluster];
  s.seconds += t1 - t0_;
  // The serial bracket IS the region wall: busy == wall here.
  wall_[pi] += t1 - t0_;
  s.invocations += 1;
  s.flops += flops1 - flops0_;
  s.elementUpdates += elements;
  s.bytesEstimate += bytesEstimate;
  if (traceEnabled_ && !traceSaturated_) {
    if (trace_.size() >= maxTraceEvents_) {
      traceSaturated_ = true;  // keep the head; do not grow unboundedly
    } else {
      trace_.push_back({static_cast<std::int8_t>(pi), cluster, -1,
                        (t0_ - epoch_) * 1e6, (t1 - t0_) * 1e6});
    }
  }
}

void PerfMonitor::mergeThread(
    const std::vector<PhaseStats> (&stats)[kNumPhases],
    const std::vector<TraceEvent>& trace,
    const double (&wall)[kNumPhases], unsigned hwMask) {
  std::lock_guard<std::mutex> lock(mergeMutex_);
  for (int p = 0; p < kNumPhases; ++p) {
    if (!stats[p].empty()) {
      ensureCluster(p, static_cast<int>(stats[p].size()) - 1);
      for (std::size_t c = 0; c < stats[p].size(); ++c) {
        stats_[p][c] += stats[p][c];
      }
    }
    wall_[p] += wall[p];
  }
  hwMask_ |= hwMask;
  if (traceEnabled_ && !traceSaturated_) {
    for (const TraceEvent& e : trace) {
      if (trace_.size() >= maxTraceEvents_) {
        traceSaturated_ = true;
        break;
      }
      trace_.push_back(e);
    }
  }
}

PerfThreadRecorder::PerfThreadRecorder(PerfMonitor* monitor, int numClusters,
                                       bool wallOwner)
    : m_(monitor), wallOwner_(wallOwner) {
  if (m_) {
    for (auto& perPhase : stats_) {
      perPhase.resize(numClusters);
    }
    captureTrace_ = m_->traceEnabled();
    if (m_->hwCountersRequested()) {
      // Opens this thread's counter group on first use; an unavailable
      // group (sandboxed CI, non-Linux) simply leaves captureHw_ false.
      HwCounterGroup& g = threadHwCounters();
      captureHw_ = g.available();
      hwMask_ = g.mask();
    }
  }
}

void PerfThreadRecorder::begin() {
  if (m_) {
    flops0_ = threadFlops();
    if (captureHw_) {
      hw0_ = threadHwCounters().sample();
    }
    t0_ = nowSeconds();
  }
}

void PerfThreadRecorder::end(Phase p, int cluster, std::uint64_t elements,
                             std::uint64_t bytesEstimate) {
  if (!m_) {
    return;
  }
  const double t1 = nowSeconds();
  PhaseStats& s = stats_[static_cast<int>(p)][cluster];
  s.seconds += t1 - t0_;
  s.invocations += 1;
  s.flops += threadFlops() - flops0_;
  s.elementUpdates += elements;
  s.bytesEstimate += bytesEstimate;
  if (captureHw_) {
    const HwCounterDelta d =
        hwCounterDelta(hw0_, threadHwCounters().sample(), hwMask_);
    if (d.valid) {
      s.cycles += d.cycles;
      s.instructions += d.instructions;
      s.llcRefs += d.llcRefs;
      s.llcMisses += d.llcMisses;
      s.stalledBackendCycles += d.stalledBackend;
      s.hwSamples += 1;
    }
  }
  // Local capture is bounded by the monitor's global cap at merge time;
  // per-thread growth within one macro cycle is a few events per wave.
  if (captureTrace_) {
    trace_.push_back({static_cast<std::int8_t>(p), cluster, -1,
                      (t0_ - m_->traceEpoch()) * 1e6, (t1 - t0_) * 1e6});
  }
}

void PerfThreadRecorder::waveBegin() {
  if (m_ && wallOwner_) {
    wave0_ = nowSeconds();
  }
}

void PerfThreadRecorder::waveEnd(Phase p) {
  if (m_ && wallOwner_) {
    wall_[static_cast<int>(p)] += nowSeconds() - wave0_;
  }
}

void PerfThreadRecorder::flush(int thread) {
  if (!m_) {
    return;
  }
  for (PerfMonitor::TraceEvent& e : trace_) {
    e.thread = thread;
  }
  m_->mergeThread(stats_, trace_, wall_, captureHw_ ? hwMask_ : 0u);
  for (auto& perPhase : stats_) {
    std::fill(perPhase.begin(), perPhase.end(), PhaseStats{});
  }
  for (double& w : wall_) {
    w = 0;
  }
  trace_.clear();
}

double PerfMonitor::clockSeconds() { return nowSeconds(); }

void PerfMonitor::recordSpan(const char* name, double t0, double t1) {
  SpanStats& s = spans_[name];
  s.seconds += t1 - t0;
  s.invocations += 1;
  if (traceEnabled_ &&
      trace_.size() + namedTrace_.size() < maxTraceEvents_) {
    namedTrace_.push_back({name, (t0 - epoch_) * 1e6, (t1 - t0) * 1e6, 0});
  }
}

void PerfMonitor::instant(const char* name, std::uint64_t value) {
  if (traceEnabled_ &&
      trace_.size() + namedTrace_.size() < maxTraceEvents_) {
    namedTrace_.push_back(
        {name, (nowSeconds() - epoch_) * 1e6, -1.0, value});
  }
}

void PerfMonitor::enableTrace(std::size_t maxEvents) {
  traceEnabled_ = true;
  maxTraceEvents_ = maxEvents;
  trace_.reserve(std::min<std::size_t>(maxEvents, 1u << 16));
}

PhaseStats PerfMonitor::total(Phase p) const {
  PhaseStats out;
  for (const PhaseStats& s : stats_[static_cast<int>(p)]) {
    out += s;
  }
  return out;
}

double PerfMonitor::totalSeconds() const {
  double t = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    t += total(static_cast<Phase>(p)).seconds;
  }
  return t;
}

double PerfMonitor::totalWallSeconds() const {
  double t = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    t += wall_[p];
  }
  return t;
}

void PerfMonitor::reset() {
  for (auto& perPhase : stats_) {
    perPhase.clear();
  }
  for (double& w : wall_) {
    w = 0;
  }
  hwMask_ = 0;
  spans_.clear();
  trace_.clear();
  namedTrace_.clear();
  traceSaturated_ = false;
}

void PerfMonitor::writeChromeTrace(const std::string& path) const {
  std::string out = "{\"traceEvents\":[";
  char buf[224];
  // Label the named-span track so Perfetto shows "run/io" instead of a
  // bare tid next to the per-cluster kernel rows.
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"name\":\"run/io\"}}",
                kRunTrackTid);
  out += buf;
  for (const TraceEvent& e : trace_) {
    out += ',';
    // Rows stay keyed by cluster; the producing worker thread (persistent
    // parallel region) is carried in args so Perfetto can slice by it.
    if (e.thread >= 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                    "\"args\":{\"thread\":%d}}",
                    phaseName(static_cast<Phase>(e.phase)), e.beginUs,
                    e.durUs, e.cluster, e.thread);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d}",
                    phaseName(static_cast<Phase>(e.phase)), e.beginUs,
                    e.durUs, e.cluster);
    }
    out += buf;
  }
  for (const NamedEvent& e : namedTrace_) {
    out += ',';
    if (e.durUs < 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"run\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,"
                    "\"args\":{\"count\":%" PRIu64 "}}",
                    e.name, e.beginUs, kRunTrackTid, e.value);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"run\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d}",
                    e.name, e.beginUs, e.durUs, kRunTrackTid);
    }
    out += buf;
  }
  out += "]}";
  atomicWriteFile(path, out);
}

namespace {

void appendStats(std::string& out, const PhaseStats& s) {
  char buf[448];
  const double gflops = s.seconds > 0 ? s.flops / s.seconds / 1e9 : 0.0;
  const double elemPerS =
      s.seconds > 0 ? s.elementUpdates / s.seconds : 0.0;
  const double flopPerByte =
      s.bytesEstimate > 0 ? static_cast<double>(s.flops) / s.bytesEstimate
                          : 0.0;
  // "seconds" is the compatibility alias of "busy_seconds" (sum of
  // per-thread busy time); see the header comment.
  std::snprintf(buf, sizeof buf,
                "\"seconds\":%s,\"busy_seconds\":%s,\"invocations\":%" PRIu64
                ",\"flops\":%" PRIu64 ",\"element_updates\":%" PRIu64
                ",\"bytes_estimate\":%" PRIu64
                ",\"gflops\":%s,\"elements_per_second\":%s,"
                "\"flop_per_byte\":%s",
                jsonNumber(s.seconds).c_str(), jsonNumber(s.seconds).c_str(),
                s.invocations, s.flops, s.elementUpdates, s.bytesEstimate,
                jsonNumber(gflops).c_str(), jsonNumber(elemPerS).c_str(),
                jsonNumber(flopPerByte).c_str());
  out += buf;
  if (s.hwSamples > 0) {
    const double ipc =
        s.cycles > 0 ? static_cast<double>(s.instructions) / s.cycles : 0.0;
    const double missRate =
        s.llcRefs > 0 ? static_cast<double>(s.llcMisses) / s.llcRefs : 0.0;
    const double stallFrac =
        s.cycles > 0 ? static_cast<double>(s.stalledBackendCycles) / s.cycles
                     : 0.0;
    std::snprintf(buf, sizeof buf,
                  ",\"cycles\":%" PRIu64 ",\"instructions\":%" PRIu64
                  ",\"llc_refs\":%" PRIu64 ",\"llc_misses\":%" PRIu64
                  ",\"stalled_backend_cycles\":%" PRIu64
                  ",\"ipc\":%s,\"llc_miss_rate\":%s,"
                  "\"stalled_backend_frac\":%s",
                  s.cycles, s.instructions, s.llcRefs, s.llcMisses,
                  s.stalledBackendCycles, jsonNumber(ipc).c_str(),
                  jsonNumber(missRate).c_str(), jsonNumber(stallFrac).c_str());
    out += buf;
  }
}

/// Phase-level extras that need the wall bracket: wall_seconds always,
/// plus the LLC-miss-derived DRAM bandwidth when counters are live.
void appendWallStats(std::string& out, const PhaseStats& s, double wall) {
  out += ",\"wall_seconds\":" + jsonNumber(wall);
  if (s.hwSamples > 0) {
    // 64-byte cache lines; divide by wall (not busy) -- bandwidth is a
    // machine-level rate, concurrent misses across threads share it.
    const double denom = wall > 0 ? wall : s.seconds;
    const double gbs =
        denom > 0 ? static_cast<double>(s.llcMisses) * 64.0 / denom / 1e9
                  : 0.0;
    out += ",\"gbytes_per_s\":" + jsonNumber(gbs);
  }
}

}  // namespace

std::string perfReportJson(const PerfMonitor& m, const PerfReportMeta& meta) {
  std::string out = "{\n";
  char buf[256];
  out += "  \"schema\": \"tsg-perf-1\",\n";
  out += "  \"scenario\": " + jsonString(meta.scenario) + ",\n";
  out += "  \"kernel_path\": " + jsonString(meta.kernelPath) + ",\n";
  out += "  \"backend\": " + jsonString(meta.backend) + ",\n";
  std::snprintf(buf, sizeof buf,
                "  \"degree\": %d,\n  \"threads\": %d,\n"
                "  \"batch_size\": %d,\n  \"elements\": %lld,\n",
                meta.degree, meta.threads, meta.batchSize,
                static_cast<long long>(meta.elements));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  \"element_updates\": %" PRIu64
                ",\n  \"simulated_seconds\": %s,\n",
                meta.elementUpdates,
                jsonNumber(meta.simulatedSeconds).c_str());
  out += buf;

  out += "  \"hw_counters\": ";
  out += (m.hwCounterMask() != 0) ? "true" : "false";
  out += ",\n";

  PhaseStats grand;
  for (int p = 0; p < kNumPhases; ++p) {
    grand += m.total(static_cast<Phase>(p));
  }
  out += "  \"total\": {";
  appendStats(out, grand);
  appendWallStats(out, grand, m.totalWallSeconds());
  out += "},\n";

  out += "  \"phases\": [\n";
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    out += "    {\"phase\": ";
    out += jsonString(phaseName(phase));
    out += ", ";
    appendStats(out, m.total(phase));
    appendWallStats(out, m.total(phase), m.wallSeconds(phase));
    out += ", \"per_cluster\": [";
    const auto& perCluster = m.perCluster(phase);
    for (std::size_t c = 0; c < perCluster.size(); ++c) {
      if (c) {
        out += ',';
      }
      std::snprintf(buf, sizeof buf, "{\"cluster\":%d,",
                    static_cast<int>(c));
      out += buf;
      appendStats(out, perCluster[c]);
      out += '}';
    }
    out += "]}";
    out += (p + 1 < kNumPhases) ? ",\n" : "\n";
  }
  out += "  ],\n";

  std::snprintf(buf, sizeof buf, "  \"lts\": {\"rate\": %d, \"clusters\": [",
                meta.ltsRate);
  out += buf;
  for (std::size_t c = 0; c < meta.clusters.size(); ++c) {
    if (c) {
      out += ',';
    }
    std::snprintf(buf, sizeof buf,
                  "{\"cluster\":%d,\"elements\":%lld,\"dt\":%s}",
                  meta.clusters[c].cluster,
                  static_cast<long long>(meta.clusters[c].elements),
                  jsonNumber(meta.clusters[c].dt).c_str());
    out += buf;
  }
  out += "]}";

  if (!m.spanStats().empty()) {
    out += ",\n  \"spans\": {";
    bool first = true;
    for (const auto& [name, s] : m.spanStats()) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += jsonString(name) + ": {\"seconds\": " + jsonNumber(s.seconds) +
             ", \"invocations\": " + std::to_string(s.invocations) + "}";
    }
    out += "}";
  }

  if (!meta.backends.empty()) {
    out += ",\n  \"backends\": [";
    for (std::size_t i = 0; i < meta.backends.size(); ++i) {
      if (i) {
        out += ',';
      }
      const PerfBackendResult& b = meta.backends[i];
      out += "{\"backend\":" + jsonString(b.backend) +
             ",\"threads\":" + std::to_string(b.threads) +
             ",\"seconds\":" + jsonNumber(b.seconds) +
             ",\"speedup_vs_reference\":" + jsonNumber(b.speedupVsReference) +
             "}";
    }
    out += "]";
  }

  if (!meta.host.empty()) {
    out += ",\n  \"host\": {";
    bool first = true;
    for (const auto& [key, value] : meta.host) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += jsonString(key) + ": " + jsonString(value);
    }
    out += "}";
  }

  for (const auto& [key, value] : meta.extra) {
    out += ",\n  " + jsonString(key) + ": " + jsonNumber(value);
  }
  out += "\n}\n";
  return out;
}

void writePerfReport(const std::string& path, const PerfMonitor& m,
                     const PerfReportMeta& meta) {
  atomicWriteFile(path, perfReportJson(m, meta));
}

}  // namespace tsg
