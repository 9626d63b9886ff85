// Oracle property tests for the active-set scheduler: a stepped twin and an
// active-set twin of the same scenario advance in lockstep, and every cycle
// the full observable network state must be bit-identical. On top of the
// equality proof, a did-work oracle pins the scheduling itself:
//
//   - any router whose state changed during cycle t must either have been
//     stepped at t or be scheduled for t+1 (the one legal exception: an
//     upstream neighbor allocated into its input VC, which wakes it);
//   - any NI whose state changed must have been stepped — NIs are never
//     mutated from outside;
//   - a component the scheduler skipped must therefore be bit-identical
//     before and after the cycle.
//
// An inactive component whose step would have done work shows up as a state
// divergence between the twins within a cycle or two — instant failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/active_set.hpp"
#include "nbtinoc/sim/fault_plan.hpp"
#include "nbtinoc/traffic/request_reply.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::noc {
namespace {

struct ScenarioSpec {
  const char* name;
  int width = 3;
  int vcs = 2;   ///< per vnet
  int vnets = 1;
  core::PolicyKind policy = core::PolicyKind::kSensorWise;
  double rate = 0.05;  ///< uniform injection rate; 0 = no traffic installed
  sim::Cycle wakeup_latency = 0;
  sim::Cycle decision_period = 1;
  std::uint64_t seed = 1;
  sim::Cycle cycles = 2'500;
};

// The randomized scenario grid: every policy, VC/vnet shapes, zero and
// saturating-ish rates, nonzero wakeup latency, and decision hysteresis.
const ScenarioSpec kScenarios[] = {
    {"baseline-quiet", 2, 1, 1, core::PolicyKind::kBaseline, 0.0, 0, 1, 11},
    {"baseline-loaded", 3, 2, 1, core::PolicyKind::kBaseline, 0.10, 0, 1, 12},
    {"rr-no-sensor", 3, 3, 1, core::PolicyKind::kRrNoSensor, 0.04, 1, 1, 13},
    {"sensorwise-no-traffic-policy", 3, 2, 2, core::PolicyKind::kSensorWiseNoTraffic, 0.03, 0, 1,
     14},
    {"sensorwise-quiet", 3, 2, 1, core::PolicyKind::kSensorWise, 0.0, 0, 1, 15},
    {"sensorwise-low", 4, 2, 1, core::PolicyKind::kSensorWise, 0.01, 0, 1, 16},
    {"sensorwise-hysteresis", 3, 4, 1, core::PolicyKind::kSensorWise, 0.05, 3, 4, 17},
    {"sensorwise-2vnet", 3, 2, 2, core::PolicyKind::kSensorWise, 0.08, 0, 1, 18},
    {"sensorrank", 4, 4, 1, core::PolicyKind::kSensorRank, 0.06, 1, 2, 19},
    {"sensorrank-1vc", 2, 1, 2, core::PolicyKind::kSensorRank, 0.12, 0, 1, 20},
};

NocConfig config_of(const ScenarioSpec& s) {
  NocConfig c;
  c.width = s.width;
  c.height = s.width;
  c.num_vcs = s.vcs;
  c.num_vnets = s.vnets;
  c.buffer_depth = 4;
  c.packet_length = 4;
  c.wakeup_latency = s.wakeup_latency;
  return c;
}

/// One half of a lockstep pair: network + controller + traffic, built from
/// the spec alone so both twins see identical silicon and offered load.
/// The twin owns its NBTI model: the controller's sensor banks keep a
/// pointer into it for the lifetime of the controller.
// GCC's -Wdangling-pointer misfires on the inlined controller constructor
// chain below even with every argument an lvalue member (ASan-clean).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
struct Twin {
  nbti::NbtiModel model = nbti::NbtiModel::calibrated({}, {});
  nbti::OperatingPoint op{};
  nbti::PvConfig pv{};
  core::PolicyConfig pcfg;
  Network net;
  core::PolicyGateController ctrl;

  explicit Twin(const ScenarioSpec& s)
      : pcfg(policy_config(s)), net(config_of(s)), ctrl(net, pcfg, model, op, pv, s.seed) {
    ctrl.attach();
    if (s.rate > 0.0) traffic::install_uniform_traffic(net, s.rate, s.seed ^ 0x9e3779b9ULL);
  }

  static core::PolicyConfig policy_config(const ScenarioSpec& s) {
    core::PolicyConfig pc;
    pc.kind = s.policy;
    pc.decision_period = s.decision_period;
    return pc;
  }
};
#pragma GCC diagnostic pop

using Fingerprint = std::vector<std::uint64_t>;

/// Everything observable about one router: per input VC the power state,
/// occupancy, and gate-transition count; per output VC the credit view.
void router_fingerprint(const Network& net, NodeId id, Fingerprint& out) {
  out.clear();
  const Router& r = net.router(id);
  const int vcs = net.config().total_vcs();
  for (int p = 0; p < r.num_ports(); ++p) {
    const Dir port = static_cast<Dir>(p);
    if (r.has_input(port)) {
      const InputUnit& iu = r.input(port);
      for (int v = 0; v < vcs; ++v) {
        const VcBuffer& buf = iu.vc(v);
        out.push_back(static_cast<std::uint64_t>(buf.state()));
        out.push_back(static_cast<std::uint64_t>(buf.occupancy()));
        out.push_back(buf.gate_transitions());
      }
    }
    // Credit views exist on cardinal outputs only (ejection is a free sink).
    if (p < kFirstLocalPort && r.has_output(port))
      for (int v = 0; v < vcs; ++v)
        out.push_back(static_cast<std::uint64_t>(r.output(port).credits(v)));
  }
}

void ni_fingerprint(const Network& net, NodeId t, Fingerprint& out) {
  out.clear();
  const NetworkInterface& ni = net.ni(t);
  out.push_back(ni.queue_depth());
  out.push_back(ni.idle() ? 0u : 1u);
  out.push_back(ni.flits_injected());
  out.push_back(ni.packets_ejected());
  for (int v = 0; v < net.config().total_vcs(); ++v)
    out.push_back(static_cast<std::uint64_t>(ni.credits(v)));
}

/// Global movement counters — the catch-all for anything the per-component
/// fingerprints miss.
Fingerprint counter_fingerprint(const Network& net) {
  Fingerprint out;
  for (const char* key : {"noc.flits_injected", "noc.flits_ejected", "noc.flits_forwarded",
                          "noc.flits_ejected_router", "noc.packets_offered", "noc.packets_ejected",
                          "noc.va_grants", "noc.ni_va_grants"})
    out.push_back(net.stats().counter(key));
  return out;
}

/// Drives both twins one cycle at a time, asserting per-cycle equality and
/// the did-work attribution oracle on the active twin.
void run_lockstep(Twin& stepped, Twin& active, sim::Cycle cycles, const std::string& label) {
  const int routers = stepped.net.num_routers();
  const int nodes = stepped.net.nodes();
  // The attribution oracle reads the scheduler's stepped/active sets, which
  // only update while the twin actually runs in kActiveSet mode.
  const bool attribute = active.net.scheduler_mode() == SchedulerMode::kActiveSet;
  std::vector<Fingerprint> before_r(static_cast<std::size_t>(routers));
  std::vector<Fingerprint> before_n(static_cast<std::size_t>(nodes));
  Fingerprint fp_a, fp_s;
  for (sim::Cycle t = 0; t < cycles; ++t) {
    for (NodeId id = 0; id < routers; ++id)
      router_fingerprint(active.net, id, before_r[static_cast<std::size_t>(id)]);
    for (NodeId n = 0; n < nodes; ++n)
      ni_fingerprint(active.net, n, before_n[static_cast<std::size_t>(n)]);

    stepped.net.step();
    active.net.step();

    for (NodeId id = 0; id < routers; ++id) {
      router_fingerprint(active.net, id, fp_a);
      router_fingerprint(stepped.net, id, fp_s);
      ASSERT_EQ(fp_a, fp_s) << label << ": router " << id << " diverged at cycle " << t;
      if (attribute && fp_a != before_r[static_cast<std::size_t>(id)]) {
        // Did-work oracle: a changed router must have been scheduled, or —
        // when a stepped neighbor allocated into it — be scheduled next.
        EXPECT_TRUE(active.net.router_stepped(id) || active.net.router_active(id))
            << label << ": router " << id << " changed at cycle " << t
            << " while skipped and not rescheduled";
      }
    }
    for (NodeId n = 0; n < nodes; ++n) {
      ni_fingerprint(active.net, n, fp_a);
      ni_fingerprint(stepped.net, n, fp_s);
      ASSERT_EQ(fp_a, fp_s) << label << ": NI " << n << " diverged at cycle " << t;
      if (attribute && fp_a != before_n[static_cast<std::size_t>(n)]) {
        EXPECT_TRUE(active.net.ni_stepped(n))
            << label << ": NI " << n << " changed at cycle " << t << " while skipped";
      }
    }
    ASSERT_EQ(counter_fingerprint(active.net), counter_fingerprint(stepped.net))
        << label << ": global counters diverged at cycle " << t;
  }
}

TEST(ActiveSetOracle, LockstepMatchesSteppedAcrossScenarioGrid) {
  for (const ScenarioSpec& s : kScenarios) {
    Twin stepped(s);
    Twin active(s);
    active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
    ASSERT_EQ(active.net.scheduler_mode(), SchedulerMode::kActiveSet);
    run_lockstep(stepped, active, s.cycles, s.name);
    // The scheduler must have skipped *something* on the quiet scenarios —
    // otherwise this whole file only proves stepped == stepped.
    const auto& st = active.net.scheduler_stats();
    EXPECT_EQ(st.cycles_executed, s.cycles) << s.name;
    if (s.rate == 0.0 && s.policy != core::PolicyKind::kRrNoSensor) {
      EXPECT_LT(st.router_steps,
                st.cycles_executed * static_cast<std::uint64_t>(active.net.num_routers()))
          << s.name << ": nothing was ever parked";
    }
  }
}

TEST(ActiveSetOracle, AllGatedFixedPointParksTheWholeFabric) {
  // Sensor-wise with no traffic gates every VC; once each port reaches the
  // all-gated fixed point the fabric must park entirely, with run() jumping
  // epoch to epoch. Duty cycles pin the NBTI accounting across the jumps.
  ScenarioSpec s;
  s.rate = 0.0;
  Twin active(s);
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  active.net.run(100'000);
  EXPECT_EQ(active.net.clock().now(), 100'000u);
  const auto& st = active.net.scheduler_stats();
  // A handful of settle cycles of full activity, then nothing: orders of
  // magnitude below the 9 routers x 100k cycles a stepped run executes.
  EXPECT_LT(st.router_steps, 5'000u);
  EXPECT_LT(st.ni_steps, 5'000u);
  EXPECT_GT(active.net.skip_stats().cycles_skipped, 90'000u);

  Twin stepped(s);
  stepped.net.run(100'000);
  EXPECT_EQ(stepped.net.stats().counter("noc.flits_injected"),
            active.net.stats().counter("noc.flits_injected"));
  const auto stepped_duty = stepped.net.duty_cycles_percent(2, Dir::West);
  EXPECT_EQ(stepped_duty, active.net.duty_cycles_percent(2, Dir::West));
}

TEST(ActiveSetOracle, FaultStormMatchesStepped) {
  // An untargeted (fabric-wide) fault plan pins every router: the schedule
  // literally degenerates to stepped execution, and every fault RNG draw
  // stays at its stepped position. Twin injectors share plan and seed.
  ScenarioSpec s;
  s.rate = 0.05;
  s.cycles = 2'000;
  Twin stepped(s);
  Twin active(s);
  sim::FaultInjector inj_s(sim::FaultPlan::uniform(0.02), 77);
  sim::FaultInjector inj_a(sim::FaultPlan::uniform(0.02), 77);
  inj_s.bind_stats(&stepped.net.stats());
  inj_a.bind_stats(&active.net.stats());
  stepped.net.set_fault_injector(&inj_s);
  active.net.set_fault_injector(&inj_a);
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  run_lockstep(stepped, active, s.cycles, "fault-storm");
  // Degenerate schedule: every router stepped every cycle.
  EXPECT_EQ(active.net.scheduler_stats().router_steps,
            s.cycles * static_cast<std::uint64_t>(active.net.num_routers()));
}

TEST(ActiveSetOracle, TargetedFaultPinsOnlyTheFaultyRouter) {
  // Regression for the PR 4 gap where any installed injector disabled
  // skipping fabric-wide: a plan targeting one port must pin one router and
  // leave the rest of the quiet fabric parked.
  ScenarioSpec s;
  s.rate = 0.0;
  s.cycles = 4'000;
  sim::FaultPlan plan = sim::FaultPlan::uniform(0.05);
  plan.targets = {{4, static_cast<int>(Dir::East)}};
  Twin stepped(s);
  Twin active(s);
  sim::FaultInjector inj_s(plan, 123);
  sim::FaultInjector inj_a(plan, 123);
  inj_s.bind_stats(&stepped.net.stats());
  inj_a.bind_stats(&active.net.stats());
  stepped.net.set_fault_injector(&inj_s);
  active.net.set_fault_injector(&inj_a);
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  EXPECT_TRUE(active.net.router_active(4));
  run_lockstep(stepped, active, s.cycles, "targeted-fault");
  const auto& st = active.net.scheduler_stats();
  // One pinned router out of nine plus the settle transient: far below
  // whole-fabric stepping, far above zero.
  EXPECT_GE(st.router_steps, s.cycles);
  EXPECT_LT(st.router_steps, s.cycles * 3);
}

TEST(ActiveSetOracle, ReplyBoardWakesParkedServers) {
  // Request/reply traffic: a reply lands on the server's board when the
  // *requester* generates, possibly while the server's NI is parked — the
  // ReplyBoard wake sink must reschedule it. Lockstep equality catches any
  // missed or late wake.
  ScenarioSpec s;
  s.vnets = 2;
  s.cycles = 3'000;
  Twin stepped(s);
  Twin active(s);
  traffic::RequestReplyConfig rr;
  rr.request_rate = 0.01;
  traffic::install_request_reply_traffic(stepped.net, rr, 31);
  traffic::install_request_reply_traffic(active.net, rr, 31);
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  run_lockstep(stepped, active, s.cycles, "request-reply");
  EXPECT_GT(active.net.stats().counter("noc.packets_ejected"), 0u);
}

// Direct unit tests for the scheduler's data structures: the oracle suite
// above exercises them end-to-end, but cross-word boundaries and the
// set-algebra helpers deserve exact-count checks of their own.
TEST(ActiveSetPrimitives, MergeUnionsMembershipAcrossWords) {
  sim::ActiveSet a;
  sim::ActiveSet b;
  a.resize(130);  // three words, partial tail
  b.resize(130);
  a.insert(0);
  a.insert(63);
  a.insert(64);  // word boundary
  b.insert(64);  // overlap must not double-count
  b.insert(65);
  b.insert(129);  // last id, tail word
  a.merge(b);
  EXPECT_EQ(a.count(), 5);
  for (int id : {0, 63, 64, 65, 129}) EXPECT_TRUE(a.contains(id)) << id;
  EXPECT_FALSE(a.contains(1));
  EXPECT_FALSE(a.contains(128));
  std::vector<int> visited;
  a.for_each([&](int id) { visited.push_back(id); });
  EXPECT_EQ(visited, (std::vector<int>{0, 63, 64, 65, 129}));
  sim::ActiveSet mismatched;
  mismatched.resize(8);
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
}

TEST(ActiveSetPrimitives, InsertAllMasksTheTailWord) {
  sim::ActiveSet s;
  s.resize(70);  // 6 spare bits in the second word must stay clear
  s.insert_all();
  EXPECT_EQ(s.count(), 70);
  int visited = 0;
  s.for_each([&](int id) {
    EXPECT_LT(id, 70);
    ++visited;
  });
  EXPECT_EQ(visited, 70);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(ActiveSetPrimitives, WakeHeapPopsInCycleOrderWithDuplicates) {
  sim::WakeHeap heap;
  EXPECT_EQ(heap.top_cycle(), sim::kCycleNever);
  heap.push(30, 3);
  heap.push(10, 1);
  heap.push(10, 1);  // duplicates are permitted, never coalesced
  heap.push(20, 2);
  EXPECT_EQ(heap.top_cycle(), sim::Cycle{10});
  std::vector<sim::Cycle> cycles;
  while (!heap.empty()) cycles.push_back(heap.pop().cycle);
  EXPECT_EQ(cycles, (std::vector<sim::Cycle>{10, 10, 20, 30}));
}

/// A uniform synthetic source that counts its horizon queries.
class CountingSource final : public ITrafficSource {
 public:
  CountingSource(NodeId src, int width, std::uint64_t seed, int* queries)
      : inner_(src, 0.05, 4,
               traffic::DestinationPattern(traffic::PatternKind::kUniform, width, width), seed),
        queries_(queries) {}
  std::optional<PacketRequest> maybe_generate(sim::Cycle now) override {
    return inner_.maybe_generate(now);
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    ++*queries_;
    return inner_.next_event_cycle(now);
  }

 private:
  traffic::SyntheticSource inner_;
  int* queries_;
};

TEST(ActiveSetOracle, SegmentEndLeavesIdleNisUnparked) {
  // On the last cycle of a run() segment an idle NI stays active instead of
  // asking its source for a horizon the segment never reaches (a pre-roll of
  // up to 4096 draws). A one-cycle run therefore queries no source, and a
  // run split anywhere stays bit-identical to the unsplit one.
  EXPECT_EQ(core::RunnerOptions{}.scheduler, SchedulerMode::kActiveSet);
  ScenarioSpec s;
  s.rate = 0.0;  // the counting sources carry the traffic
  const auto make = [&s](int* queries) {
    auto twin = std::make_unique<Twin>(s);
    for (NodeId t = 0; t < twin->net.nodes(); ++t)
      twin->net.set_traffic_source(
          t, std::make_unique<CountingSource>(t, s.width, 40 + static_cast<std::uint64_t>(t),
                                              queries));
    twin->net.set_scheduler_mode(SchedulerMode::kActiveSet);
    return twin;
  };
  int one_cycle_queries = 0;
  make(&one_cycle_queries)->net.run(1);
  EXPECT_EQ(one_cycle_queries, 0);

  int whole_queries = 0;
  int split_queries = 0;
  auto whole = make(&whole_queries);
  auto split = make(&split_queries);
  whole->net.run(3'000);
  for (const sim::Cycle segment : {1, 1'233, 1'766}) split->net.run(segment);
  EXPECT_GT(whole_queries, 0);  // parking mid-segment still asks
  EXPECT_EQ(counter_fingerprint(split->net), counter_fingerprint(whole->net));
  for (NodeId id = 0; id < whole->net.num_routers(); ++id)
    for (int p = 0; p < kNumDirs; ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!whole->net.router(id).has_input(port)) continue;
      EXPECT_EQ(split->net.duty_cycles_percent(id, port), whole->net.duty_cycles_percent(id, port))
          << "router " << id << " port " << p;
    }
}

TEST(ActiveSetOracle, ModeRoundTripKeepsStepping) {
  // Leaving kActiveSet removes the push hooks and restores literal
  // stepping; re-entering re-arms everything. A stepped twin pins equality
  // across the whole dance.
  ScenarioSpec s;
  s.cycles = 400;
  Twin stepped(s);
  Twin active(s);
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  run_lockstep(stepped, active, 400, "round-trip-active");
  active.net.set_scheduler_mode(SchedulerMode::kStepped);
  run_lockstep(stepped, active, 400, "round-trip-stepped");
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  run_lockstep(stepped, active, 400, "round-trip-reentry");
}

}  // namespace
}  // namespace nbtinoc::noc
