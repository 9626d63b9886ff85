#include "nbtinoc/traffic/trace_file.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/trace.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace nbtinoc::traffic {

namespace {

std::uint32_t get_u32(const unsigned char* p) {
  return p[0] | (p[1] << 8) | (p[2] << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

}  // namespace

std::string serialize_trace(const Trace& trace, int node_count, std::string_view digest) {
  if (node_count < 1) throw TraceError("serialize_trace: node_count must be >= 1");
  const auto& records = trace.records();
  // Validate every record and count the per-node slice sizes first.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(node_count), 0);
  int vnet_count = 1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& rec = records[i];
    const auto fail = [&](const std::string& msg) {
      return TraceError("serialize_trace: record " + std::to_string(i) + ": " + msg);
    };
    if (rec.src < 0 || rec.src >= node_count)
      throw fail("src " + std::to_string(rec.src) + " out of range for a " +
                 std::to_string(node_count) + "-node network");
    if (rec.dst < 0 || rec.dst >= node_count)
      throw fail("dst " + std::to_string(rec.dst) + " out of range for a " +
                 std::to_string(node_count) + "-node network");
    if (rec.length < 1) throw fail("length must be >= 1, got " + std::to_string(rec.length));
    if (rec.length > 0xffff)
      throw fail("length " + std::to_string(rec.length) + " exceeds the u16 record field");
    if (rec.vnet < 0 || rec.vnet > 0xffff)
      throw fail("vnet " + std::to_string(rec.vnet) + " does not fit the u16 record field");
    ++counts[static_cast<std::size_t>(rec.src)];
    vnet_count = std::max(vnet_count, rec.vnet + 1);
  }

  sim::SnapshotWriter w;
  w.reserve(64 + digest.size() + counts.size() * 8 + records.size() * kTraceRecordBytes);
  w.raw(kTraceMagic);
  w.u32(kTraceVersion);
  w.u32(static_cast<std::uint32_t>(node_count));
  w.u32(static_cast<std::uint32_t>(vnet_count));
  w.u64(static_cast<std::uint64_t>(records.size()));
  w.str(digest);
  for (std::uint64_t c : counts) w.u64(c);
  while (w.data().size() % 8 != 0) w.u8(0);

  // Records grouped by node and sorted by cycle within each group — the
  // layout the reader validates. The sort is stable on (src, cycle), so the
  // insertion (capture/burst) order of same-cycle records is preserved
  // exactly and a capture round-trips byte-identically.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&records](std::size_t a, std::size_t b) {
    if (records[a].src != records[b].src) return records[a].src < records[b].src;
    return records[a].cycle < records[b].cycle;
  });
  for (std::size_t i : order) {
    const TraceRecord& rec = records[i];
    w.u64(static_cast<std::uint64_t>(rec.cycle));
    w.u32(static_cast<std::uint32_t>(rec.dst));
    // The u16 length and u16 vnet fields, as one little-endian u32.
    w.u32(static_cast<std::uint32_t>(rec.length) | static_cast<std::uint32_t>(rec.vnet) << 16);
  }
  return w.take();
}

void TraceFile::parse(std::string_view origin) {
  const std::string where(origin);
  const auto fail = [&](const std::string& msg) { return TraceError(where + ": " + msg); };
  std::size_t pos = 0;
  const auto need = [&](std::size_t bytes, const char* what) {
    if (size_ - pos < bytes)
      throw fail(std::string("truncated trace: ") + what + " needs " + std::to_string(bytes) +
                 " bytes at offset " + std::to_string(pos) + ", file has " +
                 std::to_string(size_ - pos));
  };

  need(kTraceMagic.size(), "magic");
  if (std::memcmp(base_, kTraceMagic.data(), kTraceMagic.size()) != 0)
    throw fail("not an NBTITRACE file (bad magic)");
  pos += kTraceMagic.size();

  need(4, "version");
  const std::uint32_t version = get_u32(base_ + pos);
  pos += 4;
  if (version != kTraceVersion)
    throw fail("unsupported trace version " + std::to_string(version) + " (this build reads " +
               std::to_string(kTraceVersion) + ")");

  need(16, "header");
  const std::uint32_t nodes = get_u32(base_ + pos);
  const std::uint32_t vnets = get_u32(base_ + pos + 4);
  record_count_ = get_u64(base_ + pos + 8);
  pos += 16;
  if (nodes == 0 || nodes > static_cast<std::uint32_t>(std::numeric_limits<int>::max()))
    throw fail("node count " + std::to_string(nodes) + " is not a positive int");
  if (vnets == 0) throw fail("vnet count must be >= 1");
  node_count_ = static_cast<int>(nodes);
  vnet_count_ = static_cast<int>(vnets);

  need(4, "digest length");
  const std::uint32_t digest_len = get_u32(base_ + pos);
  pos += 4;
  need(digest_len, "digest");
  digest_.assign(reinterpret_cast<const char*>(base_ + pos), digest_len);
  pos += digest_len;

  need(static_cast<std::size_t>(nodes) * 8, "per-node index");
  starts_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    starts_[n + 1] = starts_[n] + get_u64(base_ + pos);
    pos += 8;
  }
  if (starts_[nodes] != record_count_)
    throw fail("per-node index sums to " + std::to_string(starts_[nodes]) + " records, header says " +
               std::to_string(record_count_));

  while (pos % 8 != 0) {
    need(1, "alignment padding");
    if (base_[pos] != 0) throw fail("nonzero alignment padding at offset " + std::to_string(pos));
    ++pos;
  }

  if (record_count_ > (size_ - pos) / kTraceRecordBytes)
    throw fail("truncated trace: " + std::to_string(record_count_) + " records need " +
               std::to_string(record_count_ * kTraceRecordBytes) + " bytes, file has " +
               std::to_string(size_ - pos));
  records_ = base_ + pos;
  pos += record_count_ * kTraceRecordBytes;
  if (pos != size_)
    throw fail("trailing garbage: " + std::to_string(size_ - pos) + " bytes past the record array");

  // One full validation pass, so the replay hot path never rechecks:
  // per-record bounds and per-slice cycle monotonicity.
  for (int n = 0; n < node_count_; ++n) {
    const TraceSlice s = slice(n);
    sim::Cycle prev = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto rec_fail = [&](const std::string& msg) {
        return fail("node " + std::to_string(n) + " record " + std::to_string(i) + ": " + msg);
      };
      if (s.dst(i) < 0 || s.dst(i) >= node_count_)
        throw rec_fail("dst " + std::to_string(s.dst(i)) + " out of range for a " +
                       std::to_string(node_count_) + "-node network");
      if (s.length(i) < 1) throw rec_fail("length must be >= 1");
      if (s.vnet(i) >= vnet_count_)
        throw rec_fail("vnet " + std::to_string(s.vnet(i)) + " >= declared vnet count " +
                       std::to_string(vnet_count_));
      if (i > 0 && s.cycle(i) < prev)
        throw rec_fail("cycle " + std::to_string(s.cycle(i)) + " is before the previous record (" +
                       std::to_string(prev) + "); slices must be non-decreasing");
      prev = s.cycle(i);
    }
  }
}

std::shared_ptr<const TraceFile> TraceFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw TraceError("TraceFile::open: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw TraceError("TraceFile::open: cannot stat " + path);
  }
  auto file = std::shared_ptr<TraceFile>(new TraceFile());
  file->size_ = static_cast<std::size_t>(st.st_size);
  if (file->size_ > 0) {
    // One read-only shared mapping: every TraceReplaySource, sweep worker
    // and fleet shard in the process reads these pages; separate processes
    // mapping the same file share them through the page cache.
    void* map = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) throw TraceError("TraceFile::open: mmap failed for " + path);
    file->map_ = map;
    file->base_ = static_cast<const unsigned char*>(map);
  } else {
    ::close(fd);
    file->base_ = reinterpret_cast<const unsigned char*>(file->owned_.data());
  }
  file->parse("TraceFile::open: " + path);
  return file;
}

std::shared_ptr<const TraceFile> TraceFile::from_bytes(std::string bytes) {
  auto file = std::shared_ptr<TraceFile>(new TraceFile());
  file->owned_ = std::move(bytes);
  file->base_ = reinterpret_cast<const unsigned char*>(file->owned_.data());
  file->size_ = file->owned_.size();
  file->parse("TraceFile::from_bytes");
  return file;
}

std::shared_ptr<const TraceFile> TraceFile::from_trace(const Trace& trace, int node_count,
                                                       std::string_view digest) {
  return from_bytes(serialize_trace(trace, node_count, digest));
}

TraceFile::~TraceFile() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

Trace TraceFile::to_trace() const {
  // Interleaves the per-node slices back into global (cycle, node) order —
  // the canonical capture order, so serialize(to_trace()) round-trips
  // byte-identically.
  Trace trace;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(node_count_), 0);
  for (std::uint64_t emitted = 0; emitted < record_count_;) {
    sim::Cycle best = sim::kCycleNever;
    int best_node = -1;
    for (int n = 0; n < node_count_; ++n) {
      const TraceSlice s = slice(n);
      const std::size_t i = cursor[static_cast<std::size_t>(n)];
      if (i < s.size() && (best_node < 0 || s.cycle(i) < best)) {
        best = s.cycle(i);
        best_node = n;
      }
    }
    const TraceSlice s = slice(best_node);
    std::size_t& i = cursor[static_cast<std::size_t>(best_node)];
    // Take the node's whole same-cycle run, matching capture's per-node
    // burst grouping within one cycle.
    while (i < s.size() && s.cycle(i) == best) {
      trace.add(TraceRecord{s.cycle(i), static_cast<noc::NodeId>(best_node), s.dst(i),
                            s.length(i), s.vnet(i)});
      ++i;
      ++emitted;
    }
  }
  return trace;
}

void write_trace_file(const std::string& path, const Trace& trace, int node_count,
                      std::string_view digest) {
  const std::string bytes = serialize_trace(trace, node_count, digest);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("write_trace_file: cannot open " + path + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw TraceError("write_trace_file: short write to " + path);
}

void convert_csv_trace(const std::string& csv_path, const std::string& out_path, int node_count,
                       std::string_view digest) {
  write_trace_file(out_path, Trace::load(csv_path, node_count), node_count, digest);
}

void install_trace_replay(noc::Network& network, std::shared_ptr<const TraceFile> file) {
  if (file == nullptr) throw TraceError("install_trace_replay: null TraceFile");
  if (file->node_count() != network.nodes())
    throw TraceError("install_trace_replay: trace was captured on " +
                     std::to_string(file->node_count()) + " nodes but this network has " +
                     std::to_string(network.nodes()) + " (trace digest: \"" + file->digest() +
                     "\")");
  for (noc::NodeId id = 0; id < network.nodes(); ++id)
    network.set_traffic_source(id, std::make_unique<TraceReplaySource>(file, id));
}

}  // namespace nbtinoc::traffic
