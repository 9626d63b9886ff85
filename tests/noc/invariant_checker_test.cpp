// InvariantChecker: the safety net under fault injection. These tests prove
// both directions — a healthy network (idle, loaded, gating, faulted links)
// is clean every cycle, and a deliberately tampered network is caught.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/state_probe.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig mesh(int w, int h, int vcs = 2, int depth = 4, int plen = 4) {
  NocConfig c;
  c.width = w;
  c.height = h;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  c.packet_length = plen;
  return c;
}

void step_checked(Network& net, InvariantChecker& checker, sim::Cycle cycles) {
  for (sim::Cycle i = 0; i < cycles; ++i) {
    net.step();
    checker.check();
  }
}

// First input-port VC buffer holding a flit, or nullptr. Resident flits may
// all be in flight on channels, so callers step until this finds one.
VcBuffer* find_buffered_flit(Network& net) {
  for (NodeId id = 0; id < net.nodes(); ++id)
    for (int p = 0; p < kNumDirs; ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!net.router(id).has_input(port)) continue;
      auto& iu = net.router(id).input(port);
      for (int v = 0; v < iu.num_vcs(); ++v)
        if (iu.vc(v).occupancy() > 0) return &iu.vc(v);
    }
  return nullptr;
}

TEST(InvariantChecker, CleanOnIdleNetwork) {
  Network net(mesh(2, 2));
  InvariantChecker checker(net);
  step_checked(net, checker, 200);
  EXPECT_TRUE(checker.clean()) << checker.violations().front().what;
  EXPECT_EQ(checker.cycles_checked(), 200u);
}

TEST(InvariantChecker, CleanUnderUniformTraffic) {
  Network net(mesh(3, 3));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.3, /*seed=*/42);
  InvariantChecker checker(net);
  step_checked(net, checker, 2'000);
  EXPECT_TRUE(checker.clean()) << checker.violations().front().what;
}

TEST(InvariantChecker, CleanAcrossStatRegistryReset) {
  Network net(mesh(2, 2));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.3, 42);
  InvariantChecker checker(net);
  step_checked(net, checker, 500);
  // The warmup fence resets every counter; the flit-conservation delta
  // check must re-baseline instead of reporting a phantom loss.
  net.stats().reset();
  step_checked(net, checker, 500);
  EXPECT_TRUE(checker.clean()) << checker.violations().front().what;
}

TEST(InvariantChecker, CleanUnderControlFaultStorm) {
  Network net(mesh(3, 3));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.3, 42);
  sim::FaultInjector injector(sim::FaultPlan::uniform(0.05), /*seed=*/7);
  net.set_fault_injector(&injector);
  InvariantChecker checker(net);
  step_checked(net, checker, 2'000);
  // Faults hit only the control plane: every datapath invariant holds.
  EXPECT_TRUE(checker.clean()) << checker.violations().front().what;
}

TEST(InvariantChecker, CatchesOutOfBandFlitTheft) {
  Network net(mesh(2, 2));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.4, 42);
  InvariantChecker checker(net);
  // Warm the network up until a flit sits in some input buffer (resident
  // flits may all be in flight on channels for the first few cycles).
  VcBuffer* victim = nullptr;
  for (sim::Cycle warm = 0; victim == nullptr && warm < 500; ++warm) {
    net.step();
    checker.check();
    victim = find_buffered_flit(net);
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(checker.clean());
  // Steal the buffered flit behind the simulator's back.
  victim->pop();
  EXPECT_GT(checker.check(), 0u);
  EXPECT_FALSE(checker.clean());
}

TEST(InvariantChecker, CatchesCorruptedCreditViews) {
  // One upstream credit view per case, corrupted out of band on an idle
  // network, under both buffer organizations: router 0's East output (the
  // router link) and NI 0 (the injection path). Partitioned, a counter
  // loses a credit; shared, the pool is charged for a flit nobody sent.
  for (const BufferOrg org : {BufferOrg::kPartitioned, BufferOrg::kShared}) {
    for (const bool ni_path : {false, true}) {
      SCOPED_TRACE(to_string(org) + (ni_path ? " NI path" : " router link"));
      NocConfig cfg = mesh(2, 2);
      cfg.buffer_org = org;
      Network net(cfg);
      InvariantChecker checker(net);
      step_checked(net, checker, 10);
      ASSERT_TRUE(checker.clean()) << checker.violations().front().what;
      CreditView& view =
          ni_path ? net.ni(0).credit_view() : net.router(0).output(Dir::East).credit_view();
      view.restore(1, /*outstanding=*/1);
      EXPECT_GT(checker.check(), 0u);
      ASSERT_FALSE(checker.clean());
      EXPECT_NE(checker.violations().front().what.find(ni_path ? "NI 0 injection path vc1"
                                                               : "r0 output East vc1"),
                std::string::npos)
          << checker.violations().front().what;
    }
  }
}

TEST(InvariantChecker, CheckOrThrowReportsTheViolation) {
  Network net(mesh(2, 2));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.4, 42);
  InvariantChecker checker(net);
  VcBuffer* victim = nullptr;
  for (sim::Cycle warm = 0; victim == nullptr && warm < 500; ++warm) {
    net.step();
    victim = find_buffered_flit(net);
  }
  ASSERT_NE(victim, nullptr);
  checker.check();  // baseline the census
  victim->pop();
  EXPECT_THROW(checker.check_or_throw(), std::runtime_error);
}

TEST(InvariantChecker, DetectsDeadlock) {
  Network net(mesh(2, 2, /*vcs=*/2, /*depth=*/4, /*plen=*/4));
  InvariantChecker::Options opts;
  opts.deadlock_threshold = 32;
  opts.max_violations = 1'000;
  InvariantChecker checker(net, opts);
  // Wedge the network by hand: every VC of the downstream input port that
  // router 0's East output feeds is allocated to a phantom packet that will
  // never release it, then a routed head flit waits at router 0 for a VA
  // grant that can never come. Resident flit, zero movement -> deadlock.
  // The head is written through receive_flit, so VA sees it as waiting.
  const NodeId downstream = 1;  // east neighbor of router 0 in a 2x2 mesh
  auto& diu = net.router(downstream).input(Dir::West);
  for (int v = 0; v < diu.num_vcs(); ++v) diu.vc(v).allocate(/*packet=*/500 + v, 0);
  auto& iu = net.router(0).input(Dir::East);
  iu.vc(0).allocate(/*packet=*/999, net.clock().now());
  Flit head;
  head.type = FlitType::Head;
  head.packet = 999;
  head.vc = 0;
  head.dst = 3;  // far corner: XY-routes East first
  iu.receive_flit(head, Dir::East, net.clock().now());
  step_checked(net, checker, 200);
  bool deadlock_reported = false;
  for (const auto& v : checker.violations())
    if (v.what.find("deadlock") != std::string::npos) deadlock_reported = true;
  EXPECT_TRUE(deadlock_reported);
}

TEST(InvariantChecker, CatchesStaleWorkMasks) {
  // VA and SA read each input unit's work masks, which only the unit's own
  // events keep. Two heads at router 0's East input go around them: one is
  // received into vc 0 and then popped out of band (its pending_va bit is
  // left set), one is pushed into vc 1 behind receive_flit's back (its bit
  // is never set).
  Network net(mesh(2, 2));
  InvariantChecker checker(net);
  step_checked(net, checker, 10);
  ASSERT_TRUE(checker.clean()) << checker.violations().front().what;
  auto& iu = net.router(0).input(Dir::East);
  const sim::Cycle now = net.clock().now();
  Flit head;
  head.type = FlitType::Head;
  head.dst = 3;
  head.packet = 900;
  head.vc = 0;
  iu.vc(0).allocate(head.packet, now);
  iu.receive_flit(head, Dir::East, now);
  iu.vc(0).pop();
  head.packet = 901;
  head.vc = 1;
  iu.vc(1).allocate(head.packet, now);
  iu.vc(1).push(head);
  EXPECT_GT(checker.check(), 0u);
  const auto reported = [&](const std::string& what) {
    for (const auto& v : checker.violations())
      if (v.what.find(what) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(reported("stale pending_va mask on r0:E vc0: bit 1"));
  EXPECT_TRUE(reported("stale pending_va mask on r0:E vc1: bit 0"));
  EXPECT_FALSE(reported("stale routed mask"));
}

TEST(InvariantChecker, CatchesASettledPortChangedOutOfBand) {
  // Under the active set the gating stage passes a settled port by without
  // its at-rest test. A VC gated behind the baseline controller's back takes
  // a settled port off its all-idle fixed point, which the literal walk
  // would restore by waking the VC; the audit must see the port is no
  // longer at rest.
  Network net(mesh(3, 3));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.1, /*seed=*/42);
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  InvariantChecker checker(net);
  const auto find_settled = [&net]() -> std::pair<NodeId, Dir> {
    for (NodeId id = 0; id < net.num_routers(); ++id)
      for (int p = 0; p < kNumDirs; ++p) {
        const Dir port = static_cast<Dir>(p);
        if (net.router(id).has_input(port) && net.port_settled(id, port)) return {id, port};
      }
    return {kInvalidNode, Dir::Local};
  };
  std::pair<NodeId, Dir> settled{kInvalidNode, Dir::Local};
  for (int cycle = 0; cycle < 1'000 && settled.first == kInvalidNode; ++cycle) {
    step_checked(net, checker, 1);
    settled = find_settled();
  }
  ASSERT_TRUE(checker.clean()) << checker.violations().front().what;
  ASSERT_NE(settled.first, kInvalidNode) << "no port ever settled";
  const auto [id, port] = settled;
  ASSERT_TRUE(net.port_at_rest(id, port));
  net.router(id).input(port).vc(0).gate(net.clock().now());
  EXPECT_FALSE(net.port_at_rest(id, port));
  EXPECT_GT(checker.check(), 0u);
  const std::string expected = "settled port r" + std::to_string(id) + ":" + dir_letter(port) +
                               " is not at rest";
  bool reported = false;
  for (const auto& v : checker.violations())
    reported |= v.what.find(expected) != std::string::npos;
  EXPECT_TRUE(reported) << expected;
}

TEST(InvariantChecker, GatedBuffersStayEmptyUnderGating) {
  // Drive the built-in baseline-off path: gate VC1 of one port via a
  // direct command while traffic flows on VC0 — the mechanism layer must
  // never allow a flit into the gated buffer.
  Network net(mesh(2, 2));
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, 0.3, 42);
  InvariantChecker checker(net);
  step_checked(net, checker, 1'000);
  EXPECT_TRUE(checker.clean()) << checker.violations().front().what;
}

}  // namespace
}  // namespace nbtinoc::noc
