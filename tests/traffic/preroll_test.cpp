// The pre-roll frontier of the four stochastic traffic sources, pinned from
// the outside. Each source predicts its next packet by drawing its
// per-cycle Bernoullis ahead of time (ARCHITECTURE §10), so two things must
// hold whatever the polling schedule:
//
//   - a twin polled every cycle and a twin polled only at the cycles its
//     next_event_cycle answers name emit the same (cycle, dst, length, vnet)
//     stream, across a save -> load -> continue leg, at zero, rare, sparse
//     and saturating rates (SourceTwins.*);
//   - each source's save() bytes after a fixed polling schedule match a
//     checked-in golden, so the serialized frontier words and the RNG
//     position cannot move (Golden.SourceSnapshotsMatchCheckedInGolden).
//
// Request/reply runs as two nodes sharing one ReplyBoard per twin, so a
// reply posted to a parked peer must wake it, as the network's wake sink
// does. To regenerate the golden after an intentional change:
//   NBTINOC_UPDATE_GOLDEN=1 ./build/tests/nbtinoc_tests --gtest_filter='Golden*'

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "integration/golden_file.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/app_model.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/request_reply.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

#ifndef NBTINOC_TEST_DATA_DIR
#error "NBTINOC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace nbtinoc::traffic {
namespace {

const char* kSourceGoldenPath = NBTINOC_TEST_DATA_DIR "/integration/golden/source_snapshots.txt";

/// One twin: the sources under test, polled in node order.
struct Rig {
  std::unique_ptr<ReplyBoard> board;  ///< request/reply only
  std::vector<std::unique_ptr<noc::ITrafficSource>> sources;

  void save(sim::SnapshotWriter& w) const {
    if (board) board->save(w);
    for (const auto& s : sources) s->save(w);
  }
  void load(sim::SnapshotReader& r) {
    if (board) board->load(r);
    for (const auto& s : sources) s->load(r);
    r.expect_end();
  }
};

/// Case has no printer, so gtest lists each instance with a dump of its
/// bytes, and ctest takes that dump into the test's name. min_packets leads
/// so the name opens on the same bytes in every build; the pointers that
/// follow move with the binary's layout and with address randomization.
struct Case {
  std::size_t min_packets;  ///< 0 for the zero-rate cases, which must emit nothing
  const char* name;
  std::function<Rig()> make;
};

Rig synthetic(double rate) {
  Rig rig;
  rig.sources.push_back(std::make_unique<SyntheticSource>(
      0, rate, 4, DestinationPattern(PatternKind::kUniform, 4, 4), 11));
  return rig;
}

Rig app(double mean_rate) {
  AppProfile p;
  p.mean_rate = mean_rate;
  // Node 5 of a 4x4 mesh has four neighbors, so locality picks draw.
  Rig rig;
  rig.sources.push_back(std::make_unique<AppTrafficSource>(5, p, 4, 4, /*hotspot=*/15, 12));
  return rig;
}

Rig request_reply(double rate) {
  RequestReplyConfig c;
  c.request_rate = rate;
  Rig rig;
  rig.board = std::make_unique<ReplyBoard>(2);
  for (noc::NodeId id = 0; id < 2; ++id)
    rig.sources.push_back(std::make_unique<RequestReplySource>(
        id, 2, c, rig.board.get(), 13 + static_cast<std::uint64_t>(id)));
  return rig;
}

Rig datacenter(const DatacenterProfile& p) {
  Rig rig;
  rig.sources.push_back(std::make_unique<DatacenterAggregateSource>(0, p, 2, 2, 3, 14));
  return rig;
}

/// No session is ever ON: a one-cycle profile whose only user starts OFF.
DatacenterProfile idle_datacenter() {
  DatacenterProfile p;
  p.users_per_node = 1;
  p.mean_on_cycles = 1;
  p.mean_off_cycles = 1e12;
  p.profile_horizon = 1;
  return p;
}

/// One user ON a tenth of the time at 1/2000 packets a cycle: most
/// look-ahead windows end without a fire.
DatacenterProfile rare_datacenter() {
  DatacenterProfile p;
  p.users_per_node = 1;
  p.mean_on_cycles = 500;
  p.mean_off_cycles = 4'500;
  p.profile_horizon = 1 << 12;
  return p;
}

/// Four users ON a tenth of the time: long idle segments between sparse
/// single-user stretches.
DatacenterProfile sparse_datacenter() {
  DatacenterProfile p;
  p.users_per_node = 4;
  p.user_rate = 0.02;
  p.mean_on_cycles = 500;
  p.mean_off_cycles = 4'500;
  p.profile_horizon = 1 << 12;
  return p;
}

/// Fifteen users almost always ON at half a packet each: 7.5 packets a
/// cycle, so every cycle fires and draws its fractional part.
DatacenterProfile saturating_datacenter() {
  DatacenterProfile p;
  p.users_per_node = 15;
  p.user_rate = 2.0;
  p.mean_on_cycles = 10'000;
  p.mean_off_cycles = 10;
  p.profile_horizon = 1 << 12;
  return p;
}

/// Zero, rare (most 4096-cycle look-ahead windows end without a fire, so
/// the conservative horizon is exercised), sparse and saturating rates.
std::vector<Case> cases() {
  return {
      {0, "synthetic_zero", [] { return synthetic(0.0); }},
      {1, "synthetic_rare", [] { return synthetic(0.0004); }},
      {20, "synthetic_sparse", [] { return synthetic(0.02); }},
      {10'000, "synthetic_saturating", [] { return synthetic(4.0); }},
      {0, "app_zero", [] { return app(0.0); }},
      {1, "app_rare", [] { return app(0.0004); }},
      {20, "app_sparse", [] { return app(0.02); }},
      {1'000, "app_saturating", [] { return app(1.0); }},
      {0, "request_reply_zero", [] { return request_reply(0.0); }},
      {1, "request_reply_rare", [] { return request_reply(0.0001); }},
      {100, "request_reply_sparse", [] { return request_reply(0.01); }},
      {10'000, "request_reply_saturating", [] { return request_reply(1.0); }},
      {0, "datacenter_zero", [] { return datacenter(idle_datacenter()); }},
      {1, "datacenter_rare", [] { return datacenter(rare_datacenter()); }},
      {20, "datacenter_sparse", [] { return datacenter(sparse_datacenter()); }},
      {10'000, "datacenter_saturating", [] { return datacenter(saturating_datacenter()); }},
  };
}

struct Emission {
  sim::Cycle cycle = 0;
  std::size_t node = 0;
  noc::NodeId dst = 0;
  int length = 0;
  int vnet = 0;
  bool operator==(const Emission&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Emission& e) {
  return os << "{cycle " << e.cycle << ", node " << e.node << ", dst " << e.dst << ", length "
            << e.length << ", vnet " << e.vnet << "}";
}

/// Polls node `i` at `now` as an NI does: one generate_burst call.
void poll(Rig& rig, std::size_t i, sim::Cycle now, std::vector<Emission>& out) {
  noc::PacketRequest burst[noc::kMaxGenerateBurst];
  const std::size_t n = rig.sources[i]->generate_burst(now, burst, noc::kMaxGenerateBurst);
  for (std::size_t k = 0; k < n; ++k)
    out.push_back({now, i, burst[k].dst, burst[k].length, burst[k].vnet});
}

/// Polls every node at every cycle of [from, to).
void run_polled(Rig& rig, sim::Cycle from, sim::Cycle to, std::vector<Emission>& out) {
  for (sim::Cycle t = from; t < to; ++t)
    for (std::size_t i = 0; i < rig.sources.size(); ++i) poll(rig, i, t, out);
}

/// Polls each node only at the cycle its last next_event_cycle answer
/// named. As in the network's retire pass, the polled nodes re-ask from
/// the next cycle only once every node due at `now` has been polled: a
/// request/reply source caps its look-ahead on replies that can still be
/// posted, and a post of this cycle must already be on the board. A reply
/// posted to a peer pulls the peer's next poll in to its ready cycle.
void run_skipped(Rig& rig, sim::Cycle from, sim::Cycle to, std::vector<Emission>& out) {
  std::vector<sim::Cycle> next(rig.sources.size());
  for (std::size_t i = 0; i < next.size(); ++i) next[i] = rig.sources[i]->next_event_cycle(from);
  if (rig.board)
    rig.board->set_wake_sink([&next](noc::NodeId server, sim::Cycle ready_at) {
      sim::Cycle& n = next[static_cast<std::size_t>(server)];
      n = std::min(n, ready_at);
    });
  std::vector<bool> due(next.size());
  while (true) {
    const sim::Cycle now = *std::min_element(next.begin(), next.end());
    if (now >= to) break;
    for (std::size_t i = 0; i < next.size(); ++i) {
      due[i] = next[i] == now;
      if (due[i]) poll(rig, i, now, out);
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (!due[i]) continue;
      next[i] = rig.sources[i]->next_event_cycle(now + 1);
      ASSERT_GT(next[i], now) << "node " << i << " asked at " << now + 1;
    }
  }
  if (rig.board) rig.board->set_wake_sink(nullptr);
}

using Runner = void (*)(Rig&, sim::Cycle, sim::Cycle, std::vector<Emission>&);

/// Runs a fresh twin over [0, end) with `run`, saving at `pause` and
/// continuing in a second fresh twin loaded from the bytes.
std::vector<Emission> run_with_resume(const Case& c, Runner run, sim::Cycle pause,
                                      sim::Cycle end) {
  std::vector<Emission> out;
  Rig first = c.make();
  run(first, 0, pause, out);
  sim::SnapshotWriter w;
  first.save(w);
  Rig resumed = c.make();
  sim::SnapshotReader r(w.data());
  resumed.load(r);
  run(resumed, pause, end, out);
  return out;
}

class SourceTwins : public ::testing::TestWithParam<Case> {};

TEST_P(SourceTwins, PolledAndSkippedStreamsAgree) {
  const Case& c = GetParam();
  constexpr sim::Cycle kEnd = 40'000;
  std::vector<Emission> polled;
  Rig reference = c.make();
  run_polled(reference, 0, kEnd, polled);
  if (c.min_packets == 0) {
    EXPECT_TRUE(polled.empty()) << polled.size() << " packets from a zero-rate source";
  } else {
    EXPECT_GE(polled.size(), c.min_packets);
  }

  // Pause points off any power of two, so a resume lands inside a
  // pre-rolled window rather than on its edge.
  const std::vector<Emission> polled_resumed = run_with_resume(c, run_polled, 15'003, kEnd);
  const std::vector<Emission> skipped = run_with_resume(c, run_skipped, 21'151, kEnd);
  for (const auto* other : {&polled_resumed, &skipped}) {
    ASSERT_EQ(other->size(), polled.size());
    const auto diverge = std::mismatch(polled.begin(), polled.end(), other->begin());
    EXPECT_TRUE(diverge.first == polled.end())
        << "packet " << (diverge.first - polled.begin()) << ": polled " << *diverge.first
        << ", other twin " << *diverge.second;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, SourceTwins, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

std::string snapshot_hex(const Rig& rig) {
  sim::SnapshotWriter w;
  rig.save(w);
  return test::hex_of(w.data());
}

TEST(Golden, SourceSnapshotsMatchCheckedInGolden) {
  // Fixed schedules per case: polled every cycle to 1733, then one
  // next_event_cycle question there (a look-ahead roll), then polled on to
  // 9001; and skipped to 1733, then to 9001. One line per save.
  std::ostringstream out;
  for (const Case& c : cases()) {
    std::vector<Emission> sink;
    Rig polled = c.make();
    run_polled(polled, 0, 1'733, sink);
    out << c.name << " polled@1733: " << snapshot_hex(polled) << "\n";
    for (const auto& s : polled.sources) s->next_event_cycle(1'733);
    out << c.name << " polled@1733+ask: " << snapshot_hex(polled) << "\n";
    run_polled(polled, 1'733, 9'001, sink);
    out << c.name << " polled@9001: " << snapshot_hex(polled) << "\n";

    Rig skipped = c.make();
    run_skipped(skipped, 0, 1'733, sink);
    out << c.name << " skipped@1733: " << snapshot_hex(skipped) << "\n";
    run_skipped(skipped, 1'733, 9'001, sink);
    out << c.name << " skipped@9001: " << snapshot_hex(skipped) << "\n";
  }
  test::expect_matches_golden(kSourceGoldenPath, out.str());
}

}  // namespace
}  // namespace nbtinoc::traffic
