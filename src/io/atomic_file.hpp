#pragma once

// Atomic whole-file writes: every output path of the solver (receiver CSV,
// VTK, checkpoints, incident reports) is produced by writing the complete
// content to a sibling temporary file and then rename(2)-ing it over the
// destination.  POSIX rename within a directory is atomic, so a crash --
// including SIGKILL mid-checkpoint -- either leaves the previous file
// intact or the new one complete, never a truncated hybrid.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tsg {

/// A file written under the per-process temporary name `<path>.tmp.<pid>`
/// and renamed over `path` by commit().  Every failure (unwritable
/// directory, short write, failed rename) throws IoError naming the path;
/// destroying an uncommitted AtomicFile removes the temporary, and the
/// pre-existing file at `path`, if any, is untouched until commit().
class AtomicFile {
 public:
  explicit AtomicFile(const std::string& path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Append `size` bytes.
  void write(const void* data, std::size_t size);
  /// Overwrite `size` bytes already written at `offset` (a header field
  /// known only once the body is out).
  void writeAt(std::uint64_t offset, const void* data, std::size_t size);
  /// Close the temporary and rename it over the destination.
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< Bytes appended so far.
};

/// Write `content` to `path` atomically through an AtomicFile.
void atomicWriteFile(const std::string& path, const std::string& content);

/// Entire file as a byte string of exactly its size; throws IoError if it
/// cannot be opened or read.
std::string readFileBytes(const std::string& path);

}  // namespace tsg
