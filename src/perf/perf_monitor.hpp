#pragma once

// Per-phase x per-cluster performance observability for the stepping
// pipeline (paper Secs. 5.1/6.2 report sustained GFLOPS and the LTS
// update reduction; this module produces the machine-readable evidence).
//
// The stepping loop runs one persistent parallel region per macro cycle:
// every worker thread executes its ThreadPlan slice of each phase wave
// and accumulates (phase, cluster) stats into a private PerfThreadRecorder
// -- two steady_clock reads plus one thread-local FLOP-counter read per
// wave, no locks.  Recorders merge into the monitor once per macro cycle
// (PerfMonitor::mergeThread, mutex-guarded).  Two time bases are
// reported per phase, explicitly:
//  * `busy_seconds`: the SUM OF PER-THREAD BUSY SECONDS -- GFLOP/s
//    derived from it is the average per-busy-second (per-core sustained)
//    rate; divide by the report's `threads` for a per-thread view;
//  * `wall_seconds`: the parallel-region bracket -- thread 0 times each
//    wave from its start through the closing barrier (so imbalance wait
//    is included); end-to-end rates divide by this.
//
// Outputs:
//  * perfReportJson(): the perf report (schema "tsg-perf-1") with
//    the phase breakdown (wall seconds, GFLOP/s, element updates/s,
//    estimated FLOP/byte), the per-cluster split, the LTS histogram, and
//    aggregate named-span totals;
//  * writeChromeTrace(): an about://tracing / Perfetto-compatible event
//    file of every phase region and named event (one event cap over
//    both; the oldest events are kept).
//
// Beyond the three kernel phases, orchestration-level work (checkpoint
// save/restore, VTK/CSV output, health scans, telemetry sampling) is
// recorded as *named spans* -- begin/end pairs from the orchestrating
// thread, aggregated per name and emitted on a dedicated "run/io" trace
// track -- so a trace shows the whole run, not just kernel time.
// Per-macro-cycle quantities that happen inside parallel kernel regions
// (gravity-eta RK updates, receiver sampling) are recorded as *instant
// events* carrying a count, emitted once per macro cycle by the
// telemetry driver.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tsg {

enum class Phase : int {
  kPredictor = 0,
  kRuptureFlux = 1,
  kCorrector = 2,
};
constexpr int kNumPhases = 3;

const char* phaseName(Phase p);

struct PhaseStats {
  double seconds = 0;  // per-thread busy seconds (see header comment)
  std::uint64_t invocations = 0;
  std::uint64_t flops = 0;
  std::uint64_t elementUpdates = 0;
  std::uint64_t bytesEstimate = 0;  // analytic main-memory traffic model

  PhaseStats& operator+=(const PhaseStats& o) {
    seconds += o.seconds;
    invocations += o.invocations;
    flops += o.flops;
    elementUpdates += o.elementUpdates;
    bytesEstimate += o.bytesEstimate;
    return *this;
  }
};

class PerfMonitor {
 public:
  PerfMonitor();

  /// One phase region on the per-cluster trace rows; `thread` tags the
  /// worker that produced it (set by PerfThreadRecorder::flush).
  struct TraceEvent {
    std::int8_t phase;
    int cluster;
    int thread;
    double beginUs, durUs;
  };

  /// Merge one worker thread's accumulated per-(phase, cluster) stats and
  /// trace events (mutex-guarded; any thread).  `stats[p]` is indexed by
  /// cluster; short vectors are fine.  `wall[p]` is that thread's
  /// parallel-region bracket per phase (nonzero only for the wall-owner
  /// thread).
  void mergeThread(const std::vector<PhaseStats> (&stats)[kNumPhases],
                   const std::vector<TraceEvent>& trace,
                   const double (&wall)[kNumPhases]);

  /// Aggregate per-name wall time and count of one named span.
  struct SpanStats {
    double seconds = 0;
    std::uint64_t invocations = 0;
  };

  /// Record one named orchestration span [t0, t1] (clockSeconds values).
  /// Aggregated into spanStats() always; appended to the trace buffer
  /// when tracing is on.  `name` must outlive the monitor (use string
  /// literals).  Orchestrating thread only (outside parallel regions);
  /// spans may nest (checkpoint inside a telemetry flush).
  void recordSpan(const char* name, double t0, double t1);
  /// Record a named instant event carrying a count (e.g. gravity-eta
  /// updates in the last macro cycle).  Trace-only; no aggregate.
  void instant(const char* name, std::uint64_t value);

  /// Monotonic seconds on the span/trace clock (steady_clock).
  static double clockSeconds();

  const std::map<std::string, SpanStats>& spanStats() const { return spans_; }

  /// Keep a bounded chrome-trace event buffer (default off): phase
  /// regions and named events together hold at most `maxEvents`.
  void enableTrace(std::size_t maxEvents = 1u << 20);
  bool traceEnabled() const { return traceEnabled_; }
  /// Trace timestamp origin (construction time, clockSeconds() domain).
  double traceEpoch() const { return epoch_; }

  PhaseStats total(Phase p) const;
  const std::vector<PhaseStats>& perCluster(Phase p) const {
    return stats_[static_cast<int>(p)];
  }
  /// Sum of all phase busy times (kernel time, excludes I/O etc.).
  double totalSeconds() const;
  /// Parallel-region bracket of one phase (wave start through closing
  /// barrier, accumulated by the wall-owner thread).
  double wallSeconds(Phase p) const { return wall_[static_cast<int>(p)]; }
  /// Sum of all phase wall brackets.
  double totalWallSeconds() const;

  void reset();

  /// Chrome trace-event JSON ({"traceEvents": [...]}) written atomically.
  void writeChromeTrace(const std::string& path) const;

 private:
  struct NamedEvent {
    const char* name;  // static string, see recordSpan
    double beginUs, durUs;  // durUs < 0: instant event, value_ is the count
    std::uint64_t value;
  };

  std::vector<PhaseStats> stats_[kNumPhases];  // indexed by cluster
  double wall_[kNumPhases] = {0, 0, 0};        // parallel-region brackets
  std::mutex mergeMutex_;                      // guards mergeThread
  std::map<std::string, SpanStats> spans_;
  bool traceEnabled_ = false;
  std::size_t maxTraceEvents_ = 0;
  std::vector<TraceEvent> trace_;
  std::vector<NamedEvent> namedTrace_;
  double epoch_ = 0;  // construction time, trace timestamp origin

  void ensureCluster(int phase, int cluster);
  /// Whether one more event fits: tracing is on and trace_ plus
  /// namedTrace_ hold fewer than maxTraceEvents_ (the head is kept).
  bool traceHasRoom() const;
};

/// Per-thread phase accumulator for the persistent parallel region: one
/// instance per worker thread per macro cycle, living on that thread's
/// stack.  begin()/end(...) bracket one wave of one cluster without any
/// shared state (thread-local FLOP counter, private stats vectors); a
/// single flush() at region end merges into the monitor under its mutex.
/// Null-safe: a null monitor makes every call a no-op, so the scheduler's
/// hot loop needs no perf branches beyond the recorder's own.
class PerfThreadRecorder {
 public:
  /// `wallOwner` names the one thread per parallel region (tid 0) whose
  /// waveBegin()/waveEnd() brackets time the whole wave including the
  /// closing barrier; everyone else's wave calls are no-ops.
  PerfThreadRecorder(PerfMonitor* monitor, int numClusters,
                     bool wallOwner = false);

  void begin();
  void end(Phase p, int cluster, std::uint64_t elements,
           std::uint64_t bytesEstimate);
  /// Bracket one whole wave (wall-owner only; call waveEnd after the
  /// barrier so imbalance wait is included).
  void waveBegin();
  void waveEnd(Phase p);
  /// Merge into the monitor (thread-safe); call once, after the last wave.
  void flush(int thread);

 private:
  PerfMonitor* m_;
  std::vector<PhaseStats> stats_[kNumPhases];  // indexed by cluster
  std::vector<PerfMonitor::TraceEvent> trace_;
  double wall_[kNumPhases] = {0, 0, 0};
  bool captureTrace_ = false;
  bool wallOwner_ = false;
  double t0_ = 0;
  double wave0_ = 0;
  std::uint64_t flops0_ = 0;
};

/// RAII named span: times its scope into `monitor` (null-safe -- a null
/// monitor makes the span a no-op, so call sites stay zero-cost when
/// perf monitoring is off).
class PerfSpan {
 public:
  PerfSpan(PerfMonitor* monitor, const char* name)
      : monitor_(monitor), name_(name) {
    if (monitor_) {
      t0_ = PerfMonitor::clockSeconds();
    }
  }
  ~PerfSpan() {
    if (monitor_) {
      monitor_->recordSpan(name_, t0_, PerfMonitor::clockSeconds());
    }
  }
  PerfSpan(const PerfSpan&) = delete;
  PerfSpan& operator=(const PerfSpan&) = delete;

 private:
  PerfMonitor* monitor_;
  const char* name_;
  double t0_ = 0;
};

/// Static run metadata for the JSON report.
struct PerfClusterInfo {
  int cluster = 0;
  std::int64_t elements = 0;
  real dt = 0;
};

struct PerfReportMeta {
  std::string scenario;
  std::string kernelPath;  // "reference" | "batched"
  std::string backend;     // stage-execution backend (KernelBackend::name)
  int degree = 0;
  int threads = 0;
  int batchSize = 0;
  std::int64_t elements = 0;
  int ltsRate = 1;
  std::uint64_t elementUpdates = 0;
  double simulatedSeconds = 0;
  std::vector<PerfClusterInfo> clusters;  // the LTS cluster histogram
};

/// The perf-report document (schema "tsg-perf-1").
std::string perfReportJson(const PerfMonitor& m, const PerfReportMeta& meta);

/// Atomic write of perfReportJson.
void writePerfReport(const std::string& path, const PerfMonitor& m,
                     const PerfReportMeta& meta);

}  // namespace tsg
