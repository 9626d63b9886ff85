#pragma once
// Packet trace capture and replay. Lets users record the offered load of any
// source configuration — either standalone (Trace::capture) or from inside a
// live run (RunnerOptions::capture_trace installs the Trace as the network's
// ITraceSink) — and replay it deterministically: on byte-identical workloads
// the full network evolution, and therefore the full result JSON, matches
// the capturing run bit for bit.
//
// Two storage forms exist: this in-memory/CSV Trace (small tooling traces,
// capture staging) and the NBTITRACE binary format (trace_file.hpp), which
// replays zero-copy from one shared mmap'd file and is the form every
// production path (run_experiment, sweeps, fleets) consumes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/traffic/trace_file.hpp"

namespace nbtinoc::traffic {

struct TraceRecord {
  sim::Cycle cycle = 0;
  noc::NodeId src = 0;
  noc::NodeId dst = 0;
  int length = 1;
  int vnet = 0;
};

/// In-memory trace for the whole network, ordered by (cycle, insertion).
/// As an ITraceSink it can be handed to Network::set_trace_sink (via
/// core::RunnerOptions::capture_trace) to record a run's offered load
/// without disturbing it.
class Trace final : public noc::ITraceSink {
 public:
  void add(const TraceRecord& rec) { records_.push_back(rec); }
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// ITraceSink: one packet the traffic source offered at `now`, recorded
  /// before the NI's self-traffic/unroutable filters (a replay re-applies
  /// the same filters, keeping the runs bit-identical).
  void record(sim::Cycle now, noc::NodeId src, const noc::PacketRequest& req) override {
    records_.push_back(TraceRecord{now, src, req.dst, req.length, req.vnet});
  }

  /// CSV round-trip: "cycle,src,dst,length[,vnet]" with a '#' header
  /// comment. save() emits the vnet column only when some record needs it,
  /// so vnet-free traces stay byte-identical to the pre-vnet format.
  void save(const std::string& path) const;
  /// Parses a CSV trace. Errors are line-numbered and actionable
  /// ("path:line: ..."): wrong column count, non-numeric or negative
  /// fields, length < 1 — and, when `num_nodes` > 0, src/dst out of
  /// [0, num_nodes).
  static Trace load(const std::string& path, int num_nodes = 0);

  /// Capture helper: polls every source for `cycles` cycles (burst-aware:
  /// multi-packet sources contribute every same-cycle packet) and records
  /// what each would have offered.
  ///
  /// Contract: the sources are *consumed* — every poll advances their RNG
  /// streams exactly as a live run would, and there is no snapshot-restore.
  /// A source handed to capture() must be discarded afterwards (reusing it
  /// in a live run continues the advanced stream and silently diverges from
  /// the capture — pinned by CaptureConsumesSourceRng). To record a live
  /// run instead, use the in-run hook (core::RunnerOptions::capture_trace),
  /// which observes the run's own draws and consumes nothing extra.
  static Trace capture(std::vector<noc::ITrafficSource*> sources, sim::Cycle cycles);

 private:
  std::vector<TraceRecord> records_;
};

/// Replays one node's slice of a trace: a cursor into a shared TraceFile
/// mapping — O(1) memory per source, no allocation ever. An in-memory Trace
/// replays through TraceFile::from_trace. Same-cycle records are offered as
/// one burst through generate_burst(); the single-packet maybe_generate()
/// keeps the historical slip-forward semantics for callers without a burst
/// path.
class TraceReplaySource final : public noc::ITrafficSource {
 public:
  /// Zero-copy replay out of `file` (kept alive by the shared_ptr).
  TraceReplaySource(std::shared_ptr<const TraceFile> file, noc::NodeId node);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;
  std::size_t generate_burst(sim::Cycle now, noc::PacketRequest* out, std::size_t max) override;

  /// Exact next-event query: the recorded cycle of the next unreplayed
  /// record (clamped to `now` for slipped same-cycle records), or
  /// sim::kCycleNever once the trace is exhausted. Draw-free, so the
  /// active-set scheduler skips between trace records losslessly.
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  /// Replay progress (records consumed so far) — the only mutable state.
  std::size_t cursor() const { return next_; }

  /// Checkpoint hooks: the cursor is the whole dynamic state (the records
  /// themselves are structural, rebuilt from the same trace on resume).
  void save(sim::SnapshotWriter& w) const override { w.u64(next_); }
  void load(sim::SnapshotReader& r) override { next_ = static_cast<std::size_t>(r.u64()); }

 private:
  noc::PacketRequest request_at(std::size_t i) const {
    return noc::PacketRequest{slice_.dst(i), slice_.length(i), slice_.vnet(i)};
  }

  std::shared_ptr<const TraceFile> file_;  ///< keeps the mapping alive
  TraceSlice slice_;                       ///< window into file_'s mapping
  std::size_t next_ = 0;
};

}  // namespace nbtinoc::traffic
