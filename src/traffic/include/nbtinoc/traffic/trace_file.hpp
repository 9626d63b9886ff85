#pragma once
// NBTITRACE v1 — the zero-copy binary packet-trace format (ARCHITECTURE.md
// §13). A trace file is opened once, mmap'd read-only, and shared by every
// TraceReplaySource, SweepRunner worker and fleet shard through a
// shared_ptr<const TraceFile>: replay touches the mapping directly (no
// per-node vector copies, no steady-state allocations), so per-worker memory
// is O(1) in the record count.
//
// Layout (all integers little-endian, written through sim::SnapshotWriter):
//   bytes [0, 9)  magic "NBTITRACE"
//   u32           format version (= 1; readers reject others outright)
//   u32           node count N
//   u32           vnet count (1 + the highest vnet any record carries)
//   u64           record count R
//   u32 + bytes   free-form config digest of the capturing run
//   N x u64       per-node record index: records of node n occupy the
//                 half-open slice [sum(counts[0..n)), +counts[n]) — slices
//                 are contiguous, in node order, non-decreasing in cycle
//   zero padding  to the next multiple of 8 bytes from file start
//   R x 16 bytes  packed records: u64 cycle, u32 dst, u16 length, u16 vnet
//                 (the source node is implied by the index slice)
//
// open()/from_bytes() validate the whole file once — magic, version, size
// arithmetic, index/record-count consistency, and every record's dst bound,
// length >= 1 and per-slice cycle monotonicity — throwing TraceError with
// the offending node/record named, so the replay hot path can read without
// rechecking.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nbtinoc/noc/traffic_source.hpp"

namespace nbtinoc::noc {
class Network;
}

namespace nbtinoc::traffic {

class Trace;

/// Raised on malformed, truncated, or version-mismatched trace files, and on
/// traces that cannot be serialized (record out of range for the declared
/// node count). Messages are actionable: they name the file, the field and
/// the offending value.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// First 9 bytes of every binary trace file.
inline constexpr std::string_view kTraceMagic = "NBTITRACE";
/// Bump on any layout change; readers reject other versions outright.
inline constexpr std::uint32_t kTraceVersion = 1;
/// Bytes per packed record (u64 cycle, u32 dst, u16 length, u16 vnet).
inline constexpr std::size_t kTraceRecordBytes = 16;

/// One node's read-only window into the shared record array. Field reads
/// assemble little-endian bytes in place (a single load on LE hosts) — no
/// copies, no allocation, safe for concurrent readers.
class TraceSlice {
 public:
  TraceSlice() = default;
  TraceSlice(const unsigned char* base, std::size_t count) : base_(base), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  sim::Cycle cycle(std::size_t i) const {
    const unsigned char* p = base_ + i * kTraceRecordBytes;
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
    return static_cast<sim::Cycle>(v);
  }
  noc::NodeId dst(std::size_t i) const {
    const unsigned char* p = base_ + i * kTraceRecordBytes + 8;
    return static_cast<noc::NodeId>(p[0] | (p[1] << 8) | (p[2] << 16) |
                                    (static_cast<std::uint32_t>(p[3]) << 24));
  }
  int length(std::size_t i) const {
    const unsigned char* p = base_ + i * kTraceRecordBytes + 12;
    return p[0] | (p[1] << 8);
  }
  int vnet(std::size_t i) const {
    const unsigned char* p = base_ + i * kTraceRecordBytes + 14;
    return p[0] | (p[1] << 8);
  }

 private:
  const unsigned char* base_ = nullptr;
  std::size_t count_ = 0;
};

/// An opened, validated NBTITRACE file. Immutable after construction; one
/// instance is shared (shared_ptr<const TraceFile>) by every replay source
/// and every sweep/fleet worker in the process. File-backed instances hold
/// an mmap'd read-only mapping (released on destruction); memory-backed
/// instances (from_bytes / from_trace) own their buffer.
class TraceFile {
 public:
  /// mmap's `path` read-only and validates it. Throws TraceError naming the
  /// file on any open/format problem.
  static std::shared_ptr<const TraceFile> open(const std::string& path);
  /// Adopts an in-memory serialized trace (same validation as open()).
  static std::shared_ptr<const TraceFile> from_bytes(std::string bytes);
  /// Serializes `trace` for `node_count` nodes and adopts the result — the
  /// in-process equivalent of write() + open().
  static std::shared_ptr<const TraceFile> from_trace(const Trace& trace, int node_count,
                                                     std::string_view digest);

  ~TraceFile();
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  int node_count() const { return node_count_; }
  /// 1 + the highest vnet any record carries (1 for vnet-free traces).
  int vnet_count() const { return vnet_count_; }
  std::uint64_t record_count() const { return record_count_; }
  /// Free-form description of the capturing configuration, embedded at
  /// serialization time and quoted in mismatch errors.
  const std::string& digest() const { return digest_; }
  /// Total bytes of the backing mapping/buffer.
  std::size_t size_bytes() const { return size_; }

  /// Node `node`'s records (validated, non-decreasing in cycle).
  TraceSlice slice(noc::NodeId node) const {
    const std::uint64_t lo = starts_[static_cast<std::size_t>(node)];
    const std::uint64_t hi = starts_[static_cast<std::size_t>(node) + 1];
    return TraceSlice(records_ + lo * kTraceRecordBytes, static_cast<std::size_t>(hi - lo));
  }

  /// Materializes the whole trace back into memory (tooling/tests; not for
  /// the replay path).
  Trace to_trace() const;

 private:
  TraceFile() = default;
  void parse(std::string_view origin);  // validates base_/size_, fills fields

  const unsigned char* base_ = nullptr;  ///< whole file (mapping or owned_)
  std::size_t size_ = 0;
  void* map_ = nullptr;       ///< non-null for mmap-backed instances
  std::string owned_;         ///< non-empty for memory-backed instances
  const unsigned char* records_ = nullptr;  ///< packed record array
  int node_count_ = 0;
  int vnet_count_ = 1;
  std::uint64_t record_count_ = 0;
  std::string digest_;
  std::vector<std::uint64_t> starts_;  ///< node_count_+1 prefix sums
};

/// Serializes `trace` into NBTITRACE v1 bytes. Records are grouped by
/// source node (stable within a node, so same-cycle order is preserved) and
/// validated against `node_count`: src/dst out of range, length < 1 or
/// length/vnet past the u16 record fields throw TraceError naming the
/// record.
std::string serialize_trace(const Trace& trace, int node_count, std::string_view digest);

/// serialize_trace + atomic-ish write to `path` (throws TraceError if the
/// file cannot be written).
void write_trace_file(const std::string& path, const Trace& trace, int node_count,
                      std::string_view digest);

/// CSV -> binary converter: Trace::load(csv_path, node_count) followed by
/// write_trace_file. Line-numbered CSV errors propagate unchanged.
void convert_csv_trace(const std::string& csv_path, const std::string& out_path, int node_count,
                       std::string_view digest);

/// Installs one zero-copy TraceReplaySource per node, all sharing `file`'s
/// mapping. Throws TraceError when the node counts disagree.
void install_trace_replay(noc::Network& network, std::shared_ptr<const TraceFile> file);

}  // namespace nbtinoc::traffic
