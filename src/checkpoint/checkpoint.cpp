#include "checkpoint/checkpoint.hpp"

#include <array>
#include <cstring>

#include "io/atomic_file.hpp"

namespace tsg {

namespace {

constexpr char kMagic[8] = {'T', 'S', 'G', 'C', 'K', 'P', 'T', '\0'};
constexpr std::size_t kHeaderSize =
    sizeof kMagic + 2 * sizeof(std::uint32_t) + 5 * sizeof(std::uint64_t) +
    sizeof(std::uint32_t);

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the
/// reflected polynomial 0xEDB88320, and kCrcTables[k][b] is the CRC
/// register after byte b is followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kCrcTables = makeCrcTables();

/// Little-endian 32-bit word at p, whatever the host's byte order.
std::uint32_t loadLe32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = loadLe32(p) ^ c;
    const std::uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

BinaryWriter::BinaryWriter(AtomicFile& out)
    : out_(out), buf_(new char[kBufferSize]) {}

void BinaryWriter::writeRaw(const void* p, std::size_t n) {
  size_ += n;
  if (used_ + n <= kBufferSize) {
    std::memcpy(buf_.get() + used_, p, n);
    used_ += n;
    return;
  }
  flush();
  if (n < kBufferSize) {
    std::memcpy(buf_.get(), p, n);
    used_ = n;
    return;
  }
  crc_ = crc32(p, n, crc_);
  out_.write(p, n);
}

void BinaryWriter::flush() {
  crc_ = crc32(buf_.get(), used_, crc_);
  out_.write(buf_.get(), used_);
  used_ = 0;
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
  if (n > remaining()) {
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
  if (n > remaining() / sizeof(real)) {
    throw CheckpointError("checkpoint payload underflow: array of " +
                          std::to_string(n) + " reals exceeds stream");
  }
  std::vector<real> v(n);
  readRaw(v.data(), n * sizeof(real));
  return v;
}

void BinaryReader::readRealVecInto(std::vector<real>& v, const char* what) {
  const std::uint64_t n = readU64();
  if (n != v.size()) {
    throw CheckpointError("checkpoint: " + std::string(what) +
                          " mismatch (file " + std::to_string(n) + ", live " +
                          std::to_string(v.size()) + ")");
  }
  readRaw(v.data(), n * sizeof(real));
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

void writeCheckpointFile(
    const std::string& path, const CheckpointHeader& h,
    const std::function<void(BinaryWriter&)>& writePayload) {
  AtomicFile file(path);
  // The header goes out last, over this placeholder, once the payload's
  // size and CRC are known.
  std::array<char, kHeaderSize> header{};
  file.write(header.data(), header.size());
  BinaryWriter w(file);
  writePayload(w);
  w.flush();

  std::size_t at = 0;
  auto put = [&](const auto& v) {
    std::memcpy(header.data() + at, &v, sizeof v);
    at += sizeof v;
  };
  put(kMagic);
  put(h.version);
  put(h.degree);
  put(h.numElements);
  put(h.configHash);
  put(h.assetHash);
  put(h.scenarioHash);
  put(w.size());
  put(w.crc());
  file.writeAt(0, header.data(), header.size());
  file.commit();
}

std::string_view CheckpointFile::payload() const {
  return std::string_view(bytes).substr(kHeaderSize);
}

CheckpointFile readCheckpointFile(const std::string& path) {
  CheckpointFile f;
  try {
    f.bytes = readFileBytes(path);
  } catch (const IoError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
  const std::string_view bytes = f.bytes;
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("checkpoint " + path +
                          ": truncated (shorter than the header)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("checkpoint " + path +
                          ": bad magic (not a tsunamigen checkpoint)");
  }
  BinaryReader r(bytes.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  CheckpointHeader& h = f.header;
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
  const std::string_view payload = f.payload();
  if (crc32(payload.data(), payload.size()) != payloadCrc) {
    throw CheckpointError("checkpoint " + path +
                          ": payload CRC mismatch (file is corrupt)");
  }
  return f;
}

}  // namespace tsg
