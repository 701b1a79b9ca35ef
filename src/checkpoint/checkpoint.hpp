#pragma once

// Checkpoint/restart serialization (the role of SeisSol's checkpointing
// for the paper's multi-hour production runs, Sec. 6): a versioned binary
// container with
//
//   magic "TSGCKPT\0" | u32 version | u32 degree | u64 elements
//   | u64 config hash | u64 asset hash | u64 scenario hash
//   | u64 payload size | u32 CRC32(payload) | payload
//
// written atomically (temp file + rename, src/io/atomic_file.hpp) so that
// a crash -- including SIGKILL mid-write -- never corrupts the last good
// checkpoint.  The payload is a flat stream of scalars/arrays produced by
// BinaryWriter and consumed by BinaryReader; Simulation::saveCheckpoint /
// restoreCheckpoint define the actual field order.  The payload is
// streamed straight into the temporary file, and its size and CRC are
// patched into the header before the rename.
//
// All multi-byte values are native-endian: checkpoints are restart files
// for the machine (or homogeneous cluster) that wrote them, not an
// archival interchange format.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hpp"
#include "common/types.hpp"

namespace tsg {

class AtomicFile;

/// Unreadable, corrupt, or incompatible checkpoint file.  Derives from
/// IoError so the CLI maps it onto the I/O-failure exit code (4).
class CheckpointError : public IoError {
 public:
  explicit CheckpointError(const std::string& what) : IoError(what) {}
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) of a byte range, continuing
/// from the CRC `crc` of the bytes before it (zlib's crc32 convention):
/// crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc = 0);

/// Streams POD scalars and arrays into an AtomicFile through a fixed
/// buffer and keeps the running size and CRC-32 of what it wrote.  An
/// array at least as large as the buffer goes straight from its own
/// storage.  Call flush() before reading crc() or committing the file.
class BinaryWriter {
 public:
  /// Big enough that the per-write syscall cost vanishes, small enough
  /// that a flushed buffer is still in cache while its CRC is taken.
  static constexpr std::size_t kBufferSize = std::size_t{1} << 18;

  explicit BinaryWriter(AtomicFile& out);

  void writeU32(std::uint32_t v) { writeRaw(&v, sizeof v); }
  void writeU64(std::uint64_t v) { writeRaw(&v, sizeof v); }
  void writeI64(std::int64_t v) { writeRaw(&v, sizeof v); }
  void writeReal(real v) { writeRaw(&v, sizeof v); }
  /// Length-prefixed real array.
  void writeRealVec(const std::vector<real>& v);
  /// Length-prefixed byte string.
  void writeString(const std::string& s);

  /// Write the buffered bytes out to the file.
  void flush();
  /// Bytes written so far, buffered ones included.
  std::uint64_t size() const { return size_; }
  /// CRC-32 of the bytes written up to the last flush().
  std::uint32_t crc() const { return crc_; }

 private:
  void writeRaw(const void* p, std::size_t n);

  AtomicFile& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
  std::uint64_t size_ = 0;
  std::uint32_t crc_ = 0;
};

/// Reads the stream written by BinaryWriter from a view of bytes the
/// caller keeps alive; throws CheckpointError on underflow (truncation
/// that slipped past the size check) instead of reading garbage.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view payload) : buf_(payload) {}

  std::uint32_t readU32();
  std::uint64_t readU64();
  std::int64_t readI64();
  real readReal();
  std::vector<real> readRealVec();
  /// Length-prefixed real array read straight into `v`, whose size it
  /// must match; a mismatch throws CheckpointError naming `what`.
  void readRealVecInto(std::vector<real>& v, const char* what);
  std::string readString();

  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void readRaw(void* p, std::size_t n);
  std::string_view buf_;
  std::size_t pos_ = 0;
};

// Version 2 added the asset hash (mesh/material/structural-config
// provenance) and the scenario hash (expanded member-config provenance,
// 0 = unset) to the header.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

struct CheckpointHeader {
  std::uint32_t version = kCheckpointFormatVersion;
  std::uint32_t degree = 0;
  std::uint64_t numElements = 0;
  std::uint64_t configHash = 0;
  std::uint64_t assetHash = 0;
  std::uint64_t scenarioHash = 0;
};

/// Write a checkpoint file atomically: the header, then the payload that
/// `writePayload` streams into the writer it is given.  Throws IoError on
/// filesystem failure and leaves no temporary file behind.
void writeCheckpointFile(
    const std::string& path, const CheckpointHeader& h,
    const std::function<void(BinaryWriter&)>& writePayload);

/// A checkpoint file read into memory and validated.
struct CheckpointFile {
  CheckpointHeader header;
  std::string bytes;  ///< The whole file.
  /// The payload: a view into `bytes`.
  std::string_view payload() const;
};

/// Read and validate a checkpoint container: magic, format version,
/// payload size (truncation), and CRC.  Throws CheckpointError with a
/// descriptive message naming the path and the failed check.
CheckpointFile readCheckpointFile(const std::string& path);

}  // namespace tsg
