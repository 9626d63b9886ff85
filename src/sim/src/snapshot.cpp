#include "nbtinoc/sim/snapshot.hpp"

#include <bit>
#include <cstring>

namespace nbtinoc::sim {

namespace {

std::string preview(std::string_view bytes) {
  std::string out;
  for (char c : bytes.substr(0, 16)) {
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
      out += hex[static_cast<unsigned char>(c) & 0xf];
    }
  }
  return out;
}

}  // namespace

void SnapshotWriter::u8(std::uint8_t v) { data_.push_back(static_cast<char>(v)); }

void SnapshotWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) data_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void SnapshotWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) data_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void SnapshotWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SnapshotWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void SnapshotWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void SnapshotReader::need(std::size_t bytes, std::string_view what) const {
  if (offset_ + bytes > data_.size()) {
    throw SnapshotError("snapshot truncated: need " + std::to_string(bytes) + " byte(s) for " +
                        std::string(what) + " at offset " + std::to_string(offset_) + ", only " +
                        std::to_string(data_.size() - offset_) + " left");
  }
}

std::uint8_t SnapshotReader::u8() {
  need(1, "u8");
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint32_t SnapshotReader::u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[offset_++])) << (8 * i);
  return v;
}

std::uint64_t SnapshotReader::u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[offset_++])) << (8 * i);
  return v;
}

std::int64_t SnapshotReader::i64() { return static_cast<std::int64_t>(u64()); }

double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }

std::string SnapshotReader::str() {
  const std::uint32_t len = u32();
  need(len, "string payload");
  std::string out(data_.substr(offset_, len));
  offset_ += len;
  return out;
}

std::vector<double> SnapshotReader::f64_vec() {
  const std::uint64_t n = u64();
  need(n * 8, "f64 vector payload");
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

std::uint64_t SnapshotReader::expect_u64(std::uint64_t expected, std::string_view what) {
  const std::size_t at = offset_;
  const std::uint64_t got = u64();
  if (got != expected) {
    throw SnapshotError("snapshot structure mismatch: " + std::string(what) + " is " +
                        std::to_string(got) + " in the file but " + std::to_string(expected) +
                        " in this configuration (offset " + std::to_string(at) + ")");
  }
  return got;
}

void SnapshotReader::expect_end() const {
  if (!at_end()) {
    throw SnapshotError("snapshot has " + std::to_string(data_.size() - offset_) +
                        " unread trailing byte(s) at offset " + std::to_string(offset_) +
                        "; the file was written by an incompatible build");
  }
}

std::string frame_snapshot(std::string_view config_digest, std::string_view payload) {
  SnapshotWriter w;
  w.raw(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.str(config_digest);
  w.raw(payload);
  return w.take();
}

namespace {

// Splits the frame into (digest, payload offset); shared by open/digest.
std::pair<std::string, std::size_t> parse_frame(std::string_view file_bytes) {
  if (file_bytes.size() < kSnapshotMagic.size() ||
      file_bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    throw SnapshotError("not a snapshot file: expected magic \"" + std::string(kSnapshotMagic) +
                        "\", found \"" + preview(file_bytes) + "\"");
  }
  SnapshotReader r(file_bytes.substr(kSnapshotMagic.size()));
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot format version mismatch: file has version " +
                        std::to_string(version) + ", this build reads version " +
                        std::to_string(kSnapshotVersion) +
                        " (re-create the snapshot with this build)");
  }
  std::string digest = r.str();
  return {std::move(digest), kSnapshotMagic.size() + r.offset()};
}

}  // namespace

SnapshotReader open_snapshot(std::string_view file_bytes, std::string_view expected_digest) {
  auto [digest, payload_at] = parse_frame(file_bytes);
  if (digest != expected_digest) {
    throw SnapshotError(
        "snapshot config mismatch: the file was saved from a different scenario/policy/workload.\n"
        "  file digest:     " +
        digest + "\n  expected digest: " + std::string(expected_digest));
  }
  return SnapshotReader(file_bytes.substr(payload_at));
}

std::string snapshot_digest(std::string_view file_bytes) { return parse_frame(file_bytes).first; }

}  // namespace nbtinoc::sim
