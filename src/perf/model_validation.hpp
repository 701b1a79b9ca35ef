#pragma once

// Closes the loop between the paper-shaped performance *model*
// (perfmodel/exec_model simulating Secs. 6.2/6.3 machines) and a real
// run of our own solver on this host (paper Sec. 5.1 measures sustained
// GFLOPS against peak; Fig. 6 compares model and measurement shapes).
//
// Three pieces:
//  * probeHost(): builds a single-node MachineSpec for THIS host --
//    cores from the runtime, a peak-GF/s estimate (cores x sustained GHz
//    x ISA-dependent DP flops/cycle, GHz measured with the cycle counter
//    when perf events are available, else parsed from the CPU model
//    string, else read from /proc/cpuinfo), and a measured stream-triad
//    memory bandwidth microprobe;
//  * rooflinePhases(): classifies each measured phase of a PerfMonitor
//    against that machine's roofline -- arithmetic intensity from
//    LLC-miss traffic when hardware counters were live (falling back to
//    the analytic bytes estimate), memory- vs compute-bound by the ridge
//    point, and the fraction of the respective roof attained;
//  * modelCheckJson(): the "tsg-modelcheck-1" report -- the roofline
//    table plus a drift section diffing the measured macro-cycle wall
//    (and per-cluster busy seconds) against exec_model's
//    macroCycleSeconds / clusterSeconds prediction for the same mesh,
//    cluster layout, and host spec.  measured_over_predicted ~ 1 means
//    the paper-calibrated model transfers to this host; large drift
//    localises to clusters/phases via the two breakdowns.
//
// Everything degrades like the counters do: without hardware counters
// the roofline falls back to analytic intensities and GHz parsing, and
// the report says which source it used (`intensity_source`,
// `ghz_source`).

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/mesh.hpp"
#include "kernels/reference_matrices.hpp"
#include "perf/perf_monitor.hpp"
#include "perfmodel/machine.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

/// Where HostProbe::ghz came from, in the order probeHost tries them.
enum class GhzSource {
  kCycleCounter,  // hardware cycle counter over a ~30 ms spin
  kCpuModel,      // the "@ 3.50GHz" suffix of the CPU model string
  kCpuMhz,        // the first "cpu MHz" line of /proc/cpuinfo
  kDefault,       // nothing available: 2.5 GHz assumed
};

/// "cycle_counter" | "cpu_model" | "cpu_mhz" | "default": the
/// `ghz_source` spelling of the model-check report.
const char* ghzSourceName(GhzSource source);

/// This host, probed: a single-node MachineSpec plus the measured
/// numbers backing it.
struct HostProbe {
  MachineSpec spec;   // name "host"; 1 socket x 1 NUMA x `threads` cores
  int threads = 0;    // worker threads the peak estimate assumes
  std::string isa;    // host vector ISA counted: "avx2" | "sse2" | "scalar"
  double ghz = 0;               // sustained clock estimate
  GhzSource ghzSource = GhzSource::kDefault;
  double flopsPerCyclePerCore = 0;  // DP flops/cycle for `isa`
  double peakGflops = 0;            // threads * ghz * flopsPerCycle
  double streamGbytesPerS = 0;      // measured triad bandwidth (all threads)

  /// Roofline ridge point [flop/byte]: intensities below are memory-bound.
  double ridgeFlopPerByte() const {
    return streamGbytesPerS > 0 ? peakGflops / streamGbytesPerS : 0.0;
  }
};

/// Probe the current host.  `threads` <= 0 uses the OpenMP max-threads
/// count.  Runs a short (~0.1 s) bandwidth microprobe; never throws.
HostProbe probeHost(int threads = 0);

/// One phase against the host roofline.
struct PhaseRoofline {
  Phase phase = Phase::kPredictor;
  double busySeconds = 0;
  double wallSeconds = 0;
  double gflops = 0;        // flops / wall seconds (machine-level rate)
  double flopPerByte = 0;   // arithmetic intensity
  double gbytesPerS = 0;    // DRAM traffic / wall seconds
  bool memoryBound = false; // intensity below the ridge point
  double fractionOfRoof = 0;  // of the respective (bandwidth/peak) roof
  bool measuredBytes = false;  // intensity from LLC misses vs analytic
};

/// Classify every phase with nonzero busy time.
std::vector<PhaseRoofline> rooflinePhases(const PerfMonitor& m,
                                          const HostProbe& host);

struct ModelCheckMeta {
  std::string scenario;
  std::string backend;
  int threads = 0;
  std::uint64_t macroCycles = 0;  // measured macro cycles in the monitor
};

/// The "tsg-modelcheck-1" document: host machine, per-phase roofline,
/// and measured-vs-predicted drift (exec_model on `host.spec`, same
/// mesh/clusters).  Runs the model's partition internally (cheap at our
/// mesh sizes: single rank).
std::string modelCheckJson(const Mesh& mesh, const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta);

/// Atomic write of modelCheckJson.
void writeModelCheckReport(const std::string& path, const Mesh& mesh,
                           const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta);

}  // namespace tsg
