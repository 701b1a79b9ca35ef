#include "io/atomic_file.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/errors.hpp"

namespace tsg {

void atomicWriteFile(const std::string& path, const std::string& content) {
  // Per-process temp name: concurrent writers of the same destination
  // cannot trample each other's staging file, and a stale .tmp left by a
  // killed process is simply overwritten by the next writer with that pid.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw IoError("atomicWriteFile: cannot open " + tmp + " for writing");
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw IoError("atomicWriteFile: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("atomicWriteFile: cannot rename " + tmp + " to " + path);
  }
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw IoError("readFileBytes: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace tsg
