#include "checkpoint/checkpoint.hpp"

#include <array>
#include <cstring>

#include "io/atomic_file.hpp"

namespace tsg {

namespace {

constexpr char kMagic[8] = {'T', 'S', 'G', 'C', 'K', 'P', 'T', '\0'};

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::writeRaw(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void BinaryWriter::writeRealVec(const std::vector<real>& v) {
  writeU64(v.size());
  writeRaw(v.data(), v.size() * sizeof(real));
}

void BinaryWriter::writeString(const std::string& s) {
  writeU64(s.size());
  writeRaw(s.data(), s.size());
}

void BinaryReader::readRaw(void* p, std::size_t n) {
  if (pos_ + n > buf_.size()) {
    throw CheckpointError(
        "checkpoint payload underflow: stream ended mid-field");
  }
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint32_t BinaryReader::readU32() {
  std::uint32_t v;
  readRaw(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::readU64() {
  std::uint64_t v;
  readRaw(&v, sizeof v);
  return v;
}

std::int64_t BinaryReader::readI64() {
  std::int64_t v;
  readRaw(&v, sizeof v);
  return v;
}

real BinaryReader::readReal() {
  real v;
  readRaw(&v, sizeof v);
  return v;
}

std::vector<real> BinaryReader::readRealVec() {
  const std::uint64_t n = readU64();
  if (n * sizeof(real) > remaining()) {
    throw CheckpointError("checkpoint payload underflow: array of " +
                          std::to_string(n) + " reals exceeds stream");
  }
  std::vector<real> v(n);
  readRaw(v.data(), n * sizeof(real));
  return v;
}

std::string BinaryReader::readString() {
  const std::uint64_t n = readU64();
  if (n > remaining()) {
    throw CheckpointError("checkpoint payload underflow: string of " +
                          std::to_string(n) + " bytes exceeds stream");
  }
  std::string s(n, '\0');
  readRaw(s.data(), n);
  return s;
}

void writeCheckpointFile(const std::string& path, const CheckpointHeader& h,
                         const std::string& payload) {
  BinaryWriter w;
  std::string file;
  file.append(kMagic, sizeof kMagic);
  w.writeU32(h.version);
  w.writeU32(h.degree);
  w.writeU64(h.numElements);
  w.writeU64(h.configHash);
  w.writeU64(h.assetHash);
  w.writeU64(h.scenarioHash);
  w.writeU64(payload.size());
  w.writeU32(crc32(payload.data(), payload.size()));
  file += w.buffer();
  file += payload;
  atomicWriteFile(path, file);
}

CheckpointHeader readCheckpointFile(const std::string& path,
                                    std::string& payload) {
  std::string bytes;
  try {
    bytes = readFileBytes(path);
  } catch (const IoError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
  constexpr std::size_t kHeaderSize =
      sizeof kMagic + 2 * sizeof(std::uint32_t) + 5 * sizeof(std::uint64_t) +
      sizeof(std::uint32_t);
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("checkpoint " + path +
                          ": truncated (shorter than the header)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("checkpoint " + path +
                          ": bad magic (not a tsunamigen checkpoint)");
  }
  BinaryReader r(bytes.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  CheckpointHeader h;
  h.version = r.readU32();
  h.degree = r.readU32();
  h.numElements = r.readU64();
  h.configHash = r.readU64();
  h.assetHash = r.readU64();
  h.scenarioHash = r.readU64();
  const std::uint64_t payloadSize = r.readU64();
  const std::uint32_t payloadCrc = r.readU32();
  if (h.version != kCheckpointFormatVersion) {
    throw CheckpointError(
        "checkpoint " + path + ": format version " +
        std::to_string(h.version) + " not supported (expected " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (bytes.size() - kHeaderSize != payloadSize) {
    throw CheckpointError(
        "checkpoint " + path + ": truncated or padded payload (" +
        std::to_string(bytes.size() - kHeaderSize) + " bytes on disk, " +
        std::to_string(payloadSize) + " expected)");
  }
  payload = bytes.substr(kHeaderSize);
  if (crc32(payload.data(), payload.size()) != payloadCrc) {
    throw CheckpointError("checkpoint " + path +
                          ": payload CRC mismatch (file is corrupt)");
  }
  return h;
}

}  // namespace tsg
