#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "common/errors.hpp"

namespace tsg {

AtomicFile::AtomicFile(const std::string& path)
    // Per-process temp name: concurrent writers of the same destination
    // cannot trample each other's staging file, and a stale .tmp left by a
    // killed process is simply overwritten by the next writer with that pid.
    : path_(path), tmp_(path + ".tmp." + std::to_string(::getpid())) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw IoError("atomicWriteFile: cannot open " + tmp_ + " for writing");
  }
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    std::remove(tmp_.c_str());
  }
}

void AtomicFile::write(const void* data, std::size_t size) {
  writeAt(size_, data, size);
  size_ += size;
}

void AtomicFile::writeAt(std::uint64_t offset, const void* data,
                         std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t k = ::pwrite(fd_, p, size, static_cast<off_t>(offset));
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      throw IoError("atomicWriteFile: short write to " + tmp_);
    }
    p += k;
    offset += static_cast<std::uint64_t>(k);
    size -= static_cast<std::size_t>(k);
  }
}

void AtomicFile::commit() {
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    std::remove(tmp_.c_str());
    throw IoError("atomicWriteFile: short write to " + tmp_);
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    throw IoError("atomicWriteFile: cannot rename " + tmp_ + " to " + path_);
  }
}

void atomicWriteFile(const std::string& path, const std::string& content) {
  AtomicFile file(path);
  file.write(content.data(), content.size());
  file.commit();
}

std::string readFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError("readFileBytes: cannot open " + path);
  }
  struct stat st {};
  std::string bytes;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (ok && done < bytes.size()) {
      const ssize_t k = ::read(fd, bytes.data() + done, bytes.size() - done);
      if (k < 0 && errno == EINTR) {
        continue;
      }
      ok = k > 0;
      done += ok ? static_cast<std::size_t>(k) : 0;
    }
  }
  ::close(fd);
  if (!ok) {
    throw IoError("readFileBytes: cannot read " + path);
  }
  return bytes;
}

}  // namespace tsg
