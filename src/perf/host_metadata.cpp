#include "perf/host_metadata.hpp"

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace tsg {

namespace {

std::string firstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) {
    // Trim trailing whitespace/CR.
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r' ||
            line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    return line;
  }
  return "";
}

void putEnv(std::map<std::string, std::string>& out, const char* key,
            const char* envName) {
  if (const char* v = std::getenv(envName)) {
    out[key] = v;
  }
}

/// First "model name" line of /proc/cpuinfo ("" when unavailable).
std::string cpuModelString() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') {
          ++start;
        }
        return line.substr(start);
      }
    }
  }
  return "";
}

/// cpu0's cpufreq scaling governor from sysfs ("" when unavailable).
std::string scalingGovernor() {
  return firstLine(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
}

}  // namespace

std::map<std::string, std::string> collectHostMetadata() {
  std::map<std::string, std::string> out;
  out["nproc"] = std::to_string(std::thread::hardware_concurrency());
  // The compiler that built this library: which codegen was measured.
  out["compiler"] = __VERSION__;
  const std::string model = cpuModelString();
  if (!model.empty()) {
    out["cpu_model"] = model;
  }
  const std::string governor = scalingGovernor();
  if (!governor.empty()) {
    out["scaling_governor"] = governor;
  }
  putEnv(out, "omp_num_threads", "OMP_NUM_THREADS");
  putEnv(out, "omp_proc_bind", "OMP_PROC_BIND");
  putEnv(out, "omp_places", "OMP_PLACES");
  return out;
}

}  // namespace tsg
