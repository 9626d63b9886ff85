// Direct unit tests of the Router pipeline stages, wired with hand-built
// channels instead of a full Network.

#include "nbtinoc/noc/router.hpp"

#include <gtest/gtest.h>

namespace nbtinoc::noc {
namespace {

NocConfig config(int vcs = 2, int depth = 4) {
  NocConfig c;
  c.width = 2;
  c.height = 1;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  c.packet_length = 2;
  return c;
}

/// A two-router east-west rig: u --East--> r, plus NI-side channels on u.
/// The shared StatRegistry is declared first: routers intern their counter
/// handles against it at construction.
struct Rig {
  NocConfig cfg;
  sim::StatRegistry stats;
  Router u;
  Router r;
  Channel<Flit> flit_ur{NocConfig::kLinkDelay};
  Channel<Credit> credit_ru{NocConfig::kCreditDelay};
  Channel<Flit> inject_u{NocConfig::kLinkDelay};
  Channel<Credit> credit_u_ni{NocConfig::kCreditDelay};
  Channel<Flit> eject_u{NocConfig::kLinkDelay};
  Channel<Flit> inject_r{NocConfig::kLinkDelay};
  Channel<Credit> credit_r_ni{NocConfig::kCreditDelay};
  Channel<Flit> eject_r{NocConfig::kLinkDelay};

  explicit Rig(NocConfig c = config()) : cfg(c), u(0, c, stats), r(1, c, stats) {
    r.wire_input(Dir::West, &flit_ur, &credit_ru);
    u.wire_output(Dir::East, &r.input(Dir::West), &flit_ur, &credit_ru);
    u.wire_input(Dir::Local, &inject_u, &credit_u_ni);
    u.wire_ejection(&eject_u);
    r.wire_input(Dir::Local, &inject_r, &credit_r_ni);
    r.wire_ejection(&eject_r);
  }

  /// Emulates the NI: allocate u's local VC 0 and deliver a packet's flits.
  /// `spacing` paces the flits (an NI with credit flow control would); use a
  /// large spacing when the local buffer is shallow.
  void inject_packet(PacketId pkt, NodeId dst, int length, sim::Cycle now,
                     sim::Cycle spacing = 1) {
    u.input(Dir::Local).vc(0).allocate(pkt, now);
    for (int i = 0; i < length; ++i) {
      Flit f;
      f.packet = pkt;
      f.src = 0;
      f.dst = dst;
      f.seq = i;
      f.vc = 0;
      f.type = length == 1 ? FlitType::HeadTail
                           : (i == 0 ? FlitType::Head
                                     : (i == length - 1 ? FlitType::Tail : FlitType::Body));
      inject_u.push(f, now + static_cast<sim::Cycle>(i) * spacing);
    }
  }

  void step_routers(sim::Cycle now) {
    for (Router* router : {&u, &r}) router->va_stage(now);
    for (Router* router : {&u, &r}) router->sa_st_stage(now);
    for (Router* router : {&u, &r}) router->accept_arrivals(now);
  }
};

TEST(Router, ConstructionHasLocalPortsOnly) {
  sim::StatRegistry stats;
  Router router(0, config(), stats);
  EXPECT_TRUE(router.has_input(Dir::Local));
  EXPECT_TRUE(router.has_output(Dir::Local));
  EXPECT_FALSE(router.has_input(Dir::East));
  EXPECT_FALSE(router.has_output(Dir::East));
  EXPECT_EQ(router.id(), 0);
}

TEST(Router, WiringCreatesPorts) {
  Rig rig;
  EXPECT_TRUE(rig.u.has_output(Dir::East));
  EXPECT_TRUE(rig.r.has_input(Dir::West));
  EXPECT_FALSE(rig.u.has_input(Dir::East));
}

TEST(Router, FlitFlowsThroughBothRouters) {
  Rig rig;
  rig.inject_packet(1, /*dst=*/1, /*length=*/2, /*now=*/0);
  for (sim::Cycle t = 0; t < 20; ++t) rig.step_routers(t);
  // Both flits ejected at router 1.
  int ejected = 0;
  while (rig.eject_r.pop_ready(30)) ++ejected;
  EXPECT_EQ(ejected, 2);
  EXPECT_EQ(rig.stats.counter("noc.flits_forwarded"), 2u);
  EXPECT_EQ(rig.stats.counter("noc.flits_ejected_router"), 2u);
}

TEST(Router, NewTrafficVisibleAfterHeadArrives) {
  Rig rig;
  rig.inject_packet(1, 1, 2, 0);
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, 0));
  // Head arrives at u's local input at kLinkDelay; new traffic asserts the
  // cycle after buffer write, and deasserts once VA assigns the output VC.
  rig.u.accept_arrivals(NocConfig::kLinkDelay);
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::East, NocConfig::kLinkDelay + 1));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::West, NocConfig::kLinkDelay + 1));
  rig.u.va_stage(NocConfig::kLinkDelay + 1);
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, NocConfig::kLinkDelay + 2));
}

TEST(Router, NewTrafficClearsInTheCycleVaGrantsTheHead) {
  // The probe reads a per-cycle request matrix; a VA grant in the same
  // cycle must take the head out of it, exactly as a fresh scan would.
  NocConfig c = config();
  c.num_vnets = 2;
  Rig rig(c);
  rig.inject_packet(1, 1, 2, 0);
  const sim::Cycle t = NocConfig::kLinkDelay + 1;
  rig.u.accept_arrivals(NocConfig::kLinkDelay);
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::East, t));
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::East, /*vnet=*/0, /*cls=*/0, t));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, /*vnet=*/1, /*cls=*/0, t));
  rig.u.va_stage(t);
  ASSERT_TRUE(rig.u.input(Dir::Local).has_output(0));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, t));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, /*vnet=*/0, /*cls=*/0, t));
}

TEST(Router, NewTrafficFollowsARerouteWithinTheCycle) {
  // A head buffered with a stale route (as after a structural kill) waits
  // toward West; re-running RC moves it to the table's East in the same
  // cycle, and the probe must follow.
  Rig rig;
  InputUnit& local = rig.u.input(Dir::Local);
  local.vc(0).allocate(1, 0);
  Flit f;
  f.packet = 1;
  f.src = 0;
  f.dst = 1;
  f.vc = 0;
  f.type = FlitType::Head;
  local.receive_flit(f, Dir::West, 0);
  const sim::Cycle t = 1;
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::West, t));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::East, t));
  rig.u.reroute_waiting_heads(t);
  ASSERT_EQ(local.vc(0).route(), Dir::East);
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::East, t));
  EXPECT_TRUE(rig.u.has_new_traffic_toward(Dir::East, /*vnet=*/0, /*cls=*/0, t));
  EXPECT_FALSE(rig.u.has_new_traffic_toward(Dir::West, t));
}

TEST(Router, NewTrafficIsPerDatelineClassOnARing) {
  // Wrap-link topologies split each vnet's VCs into two dateline classes:
  // a head needing class 1 toward East must show under exactly that
  // (output, vnet, class) and nowhere else.
  NocConfig c = config(/*vcs=*/2);
  c.topology = TopologyKind::kRing;
  c.width = 4;
  sim::StatRegistry stats;
  Router router(0, c, stats);
  ASSERT_EQ(c.vc_classes(), 2);
  InputUnit& local = router.input(Dir::Local);
  local.vc(1).allocate(1, 0);
  Flit f;
  f.packet = 1;
  f.dst = 2;
  f.vc = 1;
  f.type = FlitType::Head;
  local.receive_flit(f, Dir::East, /*next_class=*/1, 0);
  for (int o = 0; o < router.num_ports(); ++o) {
    const Dir out = static_cast<Dir>(o);
    for (int cls = 0; cls < 2; ++cls)
      EXPECT_EQ(router.has_new_traffic_toward(out, /*vnet=*/0, cls, 1),
                out == Dir::East && cls == 1)
          << "output " << o << " class " << cls;
  }
}

TEST(Router, VaReservesDownstreamVcImmediately) {
  Rig rig;
  rig.inject_packet(7, 1, 2, 0);
  const sim::Cycle arrival = NocConfig::kLinkDelay;
  rig.u.accept_arrivals(arrival);
  rig.u.va_stage(arrival + 1);
  // One downstream VC of r's west port is now Active (reserved), before any
  // flit reached r.
  int active = 0;
  for (int v = 0; v < rig.cfg.num_vcs; ++v)
    if (rig.r.input(Dir::West).vc(v).is_active()) ++active;
  EXPECT_EQ(active, 1);
}

TEST(Router, VaSkipsGatedDownstreamVcs) {
  Rig rig;
  // Gate ALL downstream VCs: VA must not allocate anything.
  for (int v = 0; v < rig.cfg.num_vcs; ++v) rig.r.input(Dir::West).vc(v).gate(0);
  rig.inject_packet(7, 1, 2, 0);
  rig.u.accept_arrivals(NocConfig::kLinkDelay);
  rig.u.va_stage(NocConfig::kLinkDelay + 1);
  EXPECT_FALSE(rig.u.input(Dir::Local).has_output(0));
  // Wake one: allocation proceeds next VA.
  rig.r.input(Dir::West).vc(1).wake(NocConfig::kLinkDelay + 1);
  rig.u.va_stage(NocConfig::kLinkDelay + 2);
  EXPECT_TRUE(rig.u.input(Dir::Local).has_output(0));
  EXPECT_EQ(rig.u.input(Dir::Local).out_vc(0), 1);
}

TEST(Router, VaGrantsAFreeVnetPastABlockedOne) {
  // Two heads wait toward East, one per vnet (one VC each). Vnet 0's only
  // downstream VC is gated, so only vnet 1's head may request: the arbiter
  // must not spend this cycle's grant on the blocked head.
  NocConfig c = config(/*vcs=*/1);
  c.num_vnets = 2;
  Rig rig(c);
  rig.r.input(Dir::West).vc(0).gate(0);
  for (int vn = 0; vn < 2; ++vn) {
    rig.u.input(Dir::Local).vc(vn).allocate(static_cast<PacketId>(vn + 1), 0);
    Flit f;
    f.packet = static_cast<PacketId>(vn + 1);
    f.src = 0;
    f.dst = 1;
    f.vc = vn;
    f.vnet = vn;
    f.type = FlitType::Head;
    rig.inject_u.push(f, 0);
  }
  rig.u.accept_arrivals(NocConfig::kLinkDelay);
  rig.u.va_stage(NocConfig::kLinkDelay + 1);
  EXPECT_FALSE(rig.u.input(Dir::Local).has_output(0));
  ASSERT_TRUE(rig.u.input(Dir::Local).has_output(1));
  EXPECT_EQ(rig.u.input(Dir::Local).out_vc(1), 1);
  EXPECT_EQ(rig.stats.counter("noc.va_grants"), 1u);
}

TEST(Router, CreditsDecrementOnSendAndReturnAfterDequeue) {
  Rig rig;
  rig.inject_packet(3, 1, 2, 0);
  const int depth = rig.cfg.buffer_depth;
  sim::Cycle t = 0;
  // Run until the first flit leaves u.
  for (; t < 20 && rig.stats.counter("noc.flits_forwarded") == 0; ++t) rig.step_routers(t);
  const int out_vc = [&] {
    for (int v = 0; v < rig.cfg.num_vcs; ++v)
      if (rig.r.input(Dir::West).vc(v).is_active()) return v;
    return kInvalidVc;
  }();
  ASSERT_NE(out_vc, kInvalidVc);
  EXPECT_LT(rig.u.output(Dir::East).credit_view().credits(out_vc), depth);
  // Drain completely: credits must return to full depth.
  for (; t < 40; ++t) rig.step_routers(t);
  EXPECT_EQ(rig.u.output(Dir::East).credit_view().credits(out_vc), depth);
}

TEST(Router, TailFreesBothEnds) {
  Rig rig;
  rig.inject_packet(9, 1, 2, 0);
  for (sim::Cycle t = 0; t < 40; ++t) rig.step_routers(t);
  // After full drain every VC on both routers is Idle again.
  for (int v = 0; v < rig.cfg.num_vcs; ++v) {
    EXPECT_TRUE(rig.u.input(Dir::Local).vc(v).is_idle());
    EXPECT_TRUE(rig.r.input(Dir::West).vc(v).is_idle());
    EXPECT_FALSE(rig.u.input(Dir::Local).has_output(v));
  }
}

TEST(Router, SaRespectsCreditBackpressure) {
  // Downstream buffer depth 1 and a long packet: at most one flit may be in
  // the downstream buffer at any time.
  NocConfig tiny = config(/*vcs=*/1, /*depth=*/1);
  tiny.packet_length = 4;
  Rig rig(tiny);
  rig.inject_packet(5, 1, 4, 0, /*spacing=*/10);
  for (sim::Cycle t = 0; t < 80; ++t) {
    rig.step_routers(t);
    EXPECT_LE(rig.r.input(Dir::West).vc(0).occupancy(), 1);
  }
  int ejected = 0;
  while (rig.eject_r.pop_ready(100)) ++ejected;
  EXPECT_EQ(ejected, 4);
}

TEST(Router, SyncStressCoversAllPorts) {
  Rig rig;
  rig.r.input(Dir::West).vc(0).gate(0);
  rig.r.sync_stress(1);  // flush cycle 0 on every input port
  EXPECT_EQ(rig.r.input(Dir::West).trackers().at(0).recovery_cycles(), 1u);
  EXPECT_EQ(rig.r.input(Dir::West).trackers().at(1).stress_cycles(), 1u);
  EXPECT_EQ(rig.r.input(Dir::Local).trackers().at(0).stress_cycles(), 1u);
}

TEST(Router, EjectionUnwiredThrows) {
  NocConfig c = config();
  sim::StatRegistry stats;
  Router router(0, c, stats);
  Channel<Flit> in{NocConfig::kLinkDelay};
  Channel<Credit> out{NocConfig::kCreditDelay};
  router.wire_input(Dir::Local, &in, &out);
  // A local-destined flit with no ejection channel is a wiring bug.
  router.input(Dir::Local).vc(0).allocate(1, 0);
  Flit f;
  f.packet = 1;
  f.dst = 0;
  f.vc = 0;
  f.type = FlitType::HeadTail;
  in.push(f, 0);
  router.accept_arrivals(NocConfig::kLinkDelay);
  router.va_stage(NocConfig::kLinkDelay + 1);
  EXPECT_THROW(router.sa_st_stage(NocConfig::kLinkDelay + 1), std::logic_error);
}

}  // namespace
}  // namespace nbtinoc::noc
