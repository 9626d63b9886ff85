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
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/active_set.hpp"
#include "nbtinoc/sim/fault_plan.hpp"
#include "nbtinoc/sim/snapshot.hpp"
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
/// occupancy, and gate-transition count; per pool slot (shared
/// organization) its state and gate-transition count; per output VC the
/// credit view.
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
      if (const SharedBufferPool* pool = iu.pool())
        for (int slot = 0; slot < pool->num_slots(); ++slot) {
          out.push_back(static_cast<std::uint64_t>(pool->slot_state(slot)));
          out.push_back(pool->slot_gate_transitions(slot));
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

/// Drives both networks one cycle at a time, asserting per-cycle equality
/// against the reference and the did-work attribution oracle on `active`.
void run_lockstep(Network& reference, Network& active, sim::Cycle cycles,
                  const std::string& label) {
  const int routers = reference.num_routers();
  const int nodes = reference.nodes();
  // The attribution oracle reads the scheduler's stepped/active sets, which
  // only update while the network actually runs in kActiveSet mode.
  const bool attribute = active.scheduler_mode() == SchedulerMode::kActiveSet;
  std::vector<Fingerprint> before_r(static_cast<std::size_t>(routers));
  std::vector<Fingerprint> before_n(static_cast<std::size_t>(nodes));
  Fingerprint fp_a, fp_s;
  for (sim::Cycle t = 0; t < cycles; ++t) {
    for (NodeId id = 0; id < routers; ++id)
      router_fingerprint(active, id, before_r[static_cast<std::size_t>(id)]);
    for (NodeId n = 0; n < nodes; ++n)
      ni_fingerprint(active, n, before_n[static_cast<std::size_t>(n)]);

    reference.step();
    active.step();

    for (NodeId id = 0; id < routers; ++id) {
      router_fingerprint(active, id, fp_a);
      router_fingerprint(reference, id, fp_s);
      ASSERT_EQ(fp_a, fp_s) << label << ": router " << id << " diverged at cycle " << t;
      if (attribute && fp_a != before_r[static_cast<std::size_t>(id)]) {
        // Did-work oracle: a changed router must have been scheduled, or —
        // when a stepped neighbor allocated into it — be scheduled next.
        EXPECT_TRUE(active.router_stepped(id) || active.router_active(id))
            << label << ": router " << id << " changed at cycle " << t
            << " while skipped and not rescheduled";
      }
    }
    for (NodeId n = 0; n < nodes; ++n) {
      ni_fingerprint(active, n, fp_a);
      ni_fingerprint(reference, n, fp_s);
      ASSERT_EQ(fp_a, fp_s) << label << ": NI " << n << " diverged at cycle " << t;
      if (attribute && fp_a != before_n[static_cast<std::size_t>(n)]) {
        EXPECT_TRUE(active.ni_stepped(n))
            << label << ": NI " << n << " changed at cycle " << t << " while skipped";
      }
    }
    ASSERT_EQ(counter_fingerprint(active), counter_fingerprint(reference))
        << label << ": global counters diverged at cycle " << t;
  }
}

TEST(ActiveSetOracle, LockstepMatchesSteppedAcrossScenarioGrid) {
  for (const ScenarioSpec& s : kScenarios) {
    Twin stepped(s);
    Twin active(s);
    active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
    ASSERT_EQ(active.net.scheduler_mode(), SchedulerMode::kActiveSet);
    run_lockstep(stepped.net, active.net, s.cycles, s.name);
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
  run_lockstep(stepped.net, active.net, s.cycles, "fault-storm");
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
  run_lockstep(stepped.net, active.net, s.cycles, "targeted-fault");
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
  run_lockstep(stepped.net, active.net, s.cycles, "request-reply");
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
  run_lockstep(stepped.net, active.net, 400, "round-trip-active");
  active.net.set_scheduler_mode(SchedulerMode::kStepped);
  run_lockstep(stepped.net, active.net, 400, "round-trip-stepped");
  active.net.set_scheduler_mode(SchedulerMode::kActiveSet);
  run_lockstep(stepped.net, active.net, 400, "round-trip-reentry");
}

// --- ports at rest -----------------------------------------------------------
// The gating stage skips decide + delivery at a port at rest, under both
// schedulers, so the stepped-vs-active comparisons above compare two runs
// that both skip and cannot see a wrong skip. The reference here is a
// decorator that forwards every call but claims held decisions: the network
// then decides every port every cycle, the literal machine without the skip.

/// Forwards every call to the wrapped controller and counts decide();
/// with `reference` it claims held decisions, which turns the skip off.
class ForwardingController final : public IGateController {
 public:
  ForwardingController(IGateController& inner, bool reference)
      : inner_(&inner), reference_(reference) {}
  GateCommand decide(const PortKey& key, const OutVcStateView& view, bool new_traffic,
                     sim::Cycle now) override {
    ++decide_calls;
    return inner_->decide(key, view, new_traffic, now);
  }
  void post_cycle(sim::Cycle now) override { inner_->post_cycle(now); }
  sim::Cycle next_event_cycle(sim::Cycle now) override { return inner_->next_event_cycle(now); }
  bool holds_decisions() const override { return reference_ || inner_->holds_decisions(); }
  const char* name() const override { return inner_->name(); }

  std::uint64_t decide_calls = 0;

 private:
  IGateController* inner_;
  bool reference_;
};

/// run_experiment's object graph for one scenario (same network, silicon,
/// fault stream and offered load), wired by hand so that the controller can
/// be wrapped.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
struct Rig {
  sim::Scenario scenario;
  core::PolicyKind policy;
  nbti::NbtiModel model;
  Network net;
  core::PolicyGateController ctrl;
  ForwardingController forward;
  std::optional<sim::FaultInjector> injector;

  Rig(const sim::Scenario& s, core::PolicyKind kind, bool reference,
      const sim::FaultPlan& faults = {}, sim::Cycle decision_period = 1)
      : scenario(s),
        policy(kind),
        model(core::calibrated_model_of(s)),
        net(core::noc_config_of(s)),
        ctrl(net, policy_config(kind, decision_period), model, core::operating_point_of(s),
             core::pv_config_of(s), s.pv_seed()),
        forward(ctrl, reference) {
    net.set_gate_controller(&forward);
    if (faults.enabled()) {
      injector.emplace(faults, s.fault_seed());
      injector->bind_stats(&net.stats());
      net.set_fault_injector(&*injector);
    }
    traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform,
                                       s.injection_rate * s.phits_per_flit(), s.traffic_seed());
  }

  static core::PolicyConfig policy_config(core::PolicyKind kind, sim::Cycle decision_period) {
    core::PolicyConfig pc;
    pc.kind = kind;
    pc.decision_period = decision_period;
    return pc;
  }

  std::string json() const {
    return core::to_json(core::collect_result(scenario, policy, net, ctrl, injector.has_value()));
  }
  /// Checkpoint bytes: the state a result omits, held decisions included.
  std::string snapshot() const {
    sim::SnapshotWriter w;
    net.save_state(w);
    ctrl.save(w);
    return w.take();
  }
};
#pragma GCC diagnostic pop

struct RestCase {
  const char* name;
  const char* topology = "mesh";
  const char* buffer_org = "partitioned";
  core::PolicyKind policy = core::PolicyKind::kSensorWise;
  double rate = 0.0;
  int vcs = 2;
  int vnets = 1;
  enum class Faults { kNone, kTargeted, kLinkKill } faults = Faults::kNone;
  sim::Cycle decision_period = 1;
};

const RestCase kRestCases[] = {
    {"baseline-quiet", "mesh", "partitioned", core::PolicyKind::kBaseline, 0.0},
    {"baseline-loaded", "mesh", "partitioned", core::PolicyKind::kBaseline, 0.1},
    {"rr-no-sensor", "mesh", "partitioned", core::PolicyKind::kRrNoSensor, 0.02, 3},
    {"sensorwise-no-traffic", "mesh", "partitioned", core::PolicyKind::kSensorWiseNoTraffic, 0.05,
     2, 2},
    {"sensorwise-quiet", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.0},
    {"sensorwise-sparse", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.01, 4},
    {"sensorwise-loaded", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.2},
    {"sensorrank-2vnet", "mesh", "partitioned", core::PolicyKind::kSensorRank, 0.05, 2, 2},
    {"torus-sensorwise", "torus", "partitioned", core::PolicyKind::kSensorWise, 0.03},
    {"torus-rr", "torus", "partitioned", core::PolicyKind::kRrNoSensor, 0.0},
    {"cmesh-sensorwise", "cmesh", "partitioned", core::PolicyKind::kSensorWise, 0.02},
    {"cmesh-baseline", "cmesh", "partitioned", core::PolicyKind::kBaseline, 0.05},
    {"shared-slotmd-quiet", "mesh", "shared", core::PolicyKind::kSensorWiseSlotMd, 0.0},
    {"shared-slotmd", "mesh", "shared", core::PolicyKind::kSensorWiseSlotMd, 0.05},
    {"shared-rr-slot", "mesh", "shared", core::PolicyKind::kRrSlot, 0.02},
    {"shared-baseline", "mesh", "shared", core::PolicyKind::kBaseline, 0.03},
    {"shared-cmesh-slotmd", "cmesh", "shared", core::PolicyKind::kSensorWiseSlotMd, 0.1},
    {"targeted-fault", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.02, 2, 1,
     RestCase::Faults::kTargeted},
    {"link-kill", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.05, 2, 1,
     RestCase::Faults::kLinkKill},
    {"sensorwise-hysteresis", "mesh", "partitioned", core::PolicyKind::kSensorWise, 0.05, 2, 1,
     RestCase::Faults::kNone, 7},
    {"sensorwise-no-traffic-held", "mesh", "partitioned", core::PolicyKind::kSensorWiseNoTraffic,
     0.05, 1, 1, RestCase::Faults::kNone, 64},
};

/// Decisions the literal machine makes per cycle: one per live port and
/// (vnet, class), or one per port under the shared organization.
std::uint64_t decisions_per_cycle(const Network& net) {
  const NocConfig& c = net.config();
  const auto per_port =
      static_cast<std::uint64_t>(c.shared_buffers() ? 1 : c.num_vnets * c.vc_classes());
  std::uint64_t ports = 0;
  for (NodeId id = 0; id < net.num_routers(); ++id)
    for (int p = 0; p < net.router(id).num_ports(); ++p)
      ports += net.router(id).has_input(static_cast<Dir>(p)) ? 1 : 0;
  return ports * per_port;
}

sim::Scenario rest_scenario(const RestCase& c) {
  const bool cmesh = std::string(c.topology) == "cmesh";
  sim::Scenario s = sim::Scenario::synthetic(cmesh ? 4 : 3, c.vcs, c.rate);
  s.topology = c.topology;
  if (cmesh) s.concentration = 2;
  s.buffer_org = c.buffer_org;
  s.num_vnets = c.vnets;
  s.warmup_cycles = 300;
  s.measure_cycles = 1'500;
  return s;
}

TEST(PortAtRest, SkipMatchesTheReferencePathAcrossGrid) {
  sim::FaultPlan targeted = sim::FaultPlan::uniform(0.05);
  targeted.targets = {{4, static_cast<int>(Dir::East)}};
  // A structural kill mid-measurement: the purge, the credit rewrite and
  // the reroute all change what the ports around the dead link rest on.
  sim::FaultPlan link_kill;
  link_kill.structural.push_back({/*cycle=*/900, /*router=*/4, static_cast<int>(Dir::East)});
  for (const RestCase& c : kRestCases) {
    const sim::Scenario s = rest_scenario(c);
    const sim::FaultPlan faults = c.faults == RestCase::Faults::kTargeted   ? targeted
                                  : c.faults == RestCase::Faults::kLinkKill ? link_kill
                                                                            : sim::FaultPlan{};
    for (const SchedulerMode mode : {SchedulerMode::kStepped, SchedulerMode::kActiveSet}) {
      const std::string label =
          std::string(c.name) + (mode == SchedulerMode::kStepped ? " (stepped)" : " (active set)");
      Rig reference(s, c.policy, /*reference=*/true, faults, c.decision_period);
      Rig plain(s, c.policy, /*reference=*/false, faults, c.decision_period);
      for (Rig* rig : {&reference, &plain}) {
        rig->net.set_scheduler_mode(mode);
        rig->net.set_measuring(false);
      }
      run_lockstep(reference.net, plain.net, s.warmup_cycles, label + " warmup");
      for (Rig* rig : {&reference, &plain}) {
        rig->net.stats().reset();
        rig->net.set_measuring(true);
      }
      run_lockstep(reference.net, plain.net, s.measure_cycles, label);
      EXPECT_EQ(plain.json(), reference.json()) << label;
      EXPECT_EQ(plain.snapshot(), reference.snapshot()) << label;
      EXPECT_LE(plain.forward.decide_calls, reference.forward.decide_calls) << label;
      // The reference really is the literal machine: every port, every
      // cycle (on a fabric that loses no port).
      if (mode == SchedulerMode::kStepped && c.faults != RestCase::Faults::kLinkKill) {
        EXPECT_EQ(reference.forward.decide_calls,
                  (s.warmup_cycles + s.measure_cycles) * decisions_per_cycle(reference.net))
            << label;
      }
    }
  }
}

TEST(PortAtRest, ControllerSwapWakesEveryGatedVcOnTheNextStep) {
  // Sensor-wise with no traffic gates every VC and then rests every port.
  // The baseline installed next has never decided a port, so every port
  // decides again and wakes everything in one step.
  for (const SchedulerMode mode : {SchedulerMode::kStepped, SchedulerMode::kActiveSet}) {
    ScenarioSpec s;
    s.rate = 0.0;
    Twin twin(s);
    twin.net.set_scheduler_mode(mode);
    twin.net.run(500);
    const auto gated_ports = [&twin](bool all) {
      int matching = 0;
      int ports = 0;
      for (NodeId id = 0; id < twin.net.num_routers(); ++id)
        for (int p = 0; p < kNumDirs; ++p) {
          const Dir port = static_cast<Dir>(p);
          if (!twin.net.router(id).has_input(port)) continue;
          const InputUnit& iu = twin.net.router(id).input(port);
          ++ports;
          matching += iu.gated_vcs() == (all ? iu.num_vcs() : 0) ? 1 : 0;
        }
      return matching == ports;
    };
    ASSERT_TRUE(gated_ports(/*all=*/true));
    twin.net.set_gate_controller(nullptr);
    twin.net.step();
    EXPECT_TRUE(gated_ports(/*all=*/false));
  }
}

TEST(PortAtRest, SkipCutsDecideCallsOnASparseMesh) {
  // Sparse 8x8 sensor-wise (the sparse-8x8 benchmark's fabric, shorter):
  // the live routers next to traffic still step, but most of their ports
  // rest. The reference path decides each of them every cycle.
  sim::Scenario s = sim::Scenario::synthetic(8, 4, 0.005);
  s.warmup_cycles = 500;
  s.measure_cycles = 4'000;
  Rig reference(s, core::PolicyKind::kSensorWise, /*reference=*/true);
  Rig plain(s, core::PolicyKind::kSensorWise, /*reference=*/false);
  for (Rig* rig : {&reference, &plain}) {
    rig->net.set_scheduler_mode(SchedulerMode::kActiveSet);
    rig->net.run_with_warmup(s.warmup_cycles, s.measure_cycles);
  }
  EXPECT_EQ(plain.json(), reference.json());
  ASSERT_GT(plain.forward.decide_calls, 0u);
  EXPECT_GE(reference.forward.decide_calls, 4 * plain.forward.decide_calls)
      << reference.forward.decide_calls << " reference vs " << plain.forward.decide_calls
      << " plain decide() calls";
}

/// A controller made of one decision function; `reference` turns the skip
/// off, as ForwardingController does.
class FunctionController final : public IGateController {
 public:
  using Decide = GateCommand (*)(const OutVcStateView& view, bool new_traffic);
  FunctionController(Decide decide, bool reference) : decide_(decide), reference_(reference) {}
  GateCommand decide(const PortKey&, const OutVcStateView& view, bool new_traffic,
                     sim::Cycle) override {
    return decide_(view, new_traffic);
  }
  sim::Cycle next_event_cycle(sim::Cycle) override { return sim::kCycleNever; }
  bool holds_decisions() const override { return reference_; }
  const char* name() const override { return "function"; }

 private:
  Decide decide_;
  bool reference_;
};

TEST(PortAtRest, ContractCornersMatchTheReferencePath) {
  // Two legal controllers at the corners of the per-port clause. The first
  // never gates vnet 0 and gates vnet 1 like sensor-wise, so the records of
  // a port disagree and its awake vnet-1 VC must still be re-gated once the
  // traffic stops. The second gates idle VCs only while a VC of the range is
  // busy, so a busy port sits all-idle under its inactive record.
  struct Corner {
    const char* name;
    int vcs;
    int vnets;
    FunctionController::Decide decide;
  };
  const Corner corners[] = {
      {"split-vnets", 1, 2,
       [](const OutVcStateView& view, bool new_traffic) {
         return view.first_vc() == 0 ? GateCommand{}
                                     : core::sensor_wise_decide(view, 0, new_traffic);
       }},
      {"gate-while-busy", 2, 1,
       [](const OutVcStateView& view, bool) {
         GateCommand cmd;
         for (int i = 0; i < view.num_vcs(); ++i) cmd.gating_active |= view.is_active(i);
         return cmd;  // gating active without enable: gate every idle VC
       }},
  };
  for (const Corner& corner : corners) {
    for (const SchedulerMode mode : {SchedulerMode::kStepped, SchedulerMode::kActiveSet}) {
      NocConfig c;
      c.width = 3;
      c.height = 3;
      c.num_vcs = corner.vcs;
      c.num_vnets = corner.vnets;
      c.buffer_depth = 4;
      c.packet_length = 4;
      Network reference(c);
      Network plain(c);
      FunctionController reference_ctrl(corner.decide, /*reference=*/true);
      FunctionController plain_ctrl(corner.decide, /*reference=*/false);
      reference.set_gate_controller(&reference_ctrl);
      plain.set_gate_controller(&plain_ctrl);
      for (Network* net : {&reference, &plain}) {
        traffic::install_uniform_traffic(*net, 0.05, 29);
        net->set_scheduler_mode(mode);
      }
      run_lockstep(reference, plain, 2'000, corner.name);
    }
  }
}

TEST(PortAtRest, CreditPressureKeepsAFullyGatedPoolLive) {
  // With no traffic the slot policy gates every pool's shared region and
  // the ports rest. A charge up to a VC's reserve (the upstream committing a
  // flit) starves the pool, and the slot policy then wakes a gated slot
  // with no traffic bit set: the port is no longer at rest.
  const RestCase quiet{"shared-quiet", "mesh", "shared", core::PolicyKind::kSensorWiseSlotMd};
  const sim::Scenario s = rest_scenario(quiet);
  Rig reference(s, quiet.policy, /*reference=*/true);
  Rig plain(s, quiet.policy, /*reference=*/false);
  for (Rig* rig : {&reference, &plain}) {
    rig->net.run(300);
    SharedBufferPool& pool = *rig->net.router(4).input(Dir::East).pool();
    ASSERT_EQ(pool.gated_slots(), pool.shared_capacity());
    for (int i = 0; i < pool.reserve(); ++i) pool.charge(0);
    ASSERT_TRUE(pool.credit_starved());
  }
  run_lockstep(reference.net, plain.net, 1, "credit pressure");
  const SharedBufferPool& pool = *plain.net.router(4).input(Dir::East).pool();
  EXPECT_LT(pool.gated_slots(), pool.shared_capacity());
}

}  // namespace
}  // namespace nbtinoc::noc
