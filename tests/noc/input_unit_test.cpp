#include "nbtinoc/noc/input_unit.hpp"

#include <gtest/gtest.h>

#include "nbtinoc/noc/router.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig config(int vcs = 4, int depth = 4) {
  NocConfig c;
  c.width = 2;
  c.height = 2;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  return c;
}

Flit head(PacketId pkt) {
  Flit f;
  f.type = FlitType::Head;
  f.packet = pkt;
  return f;
}

TEST(InputUnit, Construction) {
  InputUnit iu(Dir::East, config());
  EXPECT_EQ(iu.dir(), Dir::East);
  EXPECT_EQ(iu.num_vcs(), 4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(iu.vc(v).is_idle());
    EXPECT_FALSE(iu.has_output(v));
  }
}

TEST(InputUnit, ReceiveHeadSetsRouteAndArrival) {
  InputUnit iu(Dir::East, config());
  iu.vc(1).allocate(7, 0);
  Flit f = head(7);
  f.vc = 1;
  iu.receive_flit(f, Dir::West, /*now=*/42);
  EXPECT_EQ(iu.vc(1).route(), Dir::West);
  EXPECT_EQ(iu.vc(1).front().arrived_at, 42u);
}

TEST(InputUnit, ReceiveBadVcThrows) {
  InputUnit iu(Dir::East, config(2));
  Flit f = head(1);
  f.vc = 5;
  EXPECT_THROW(iu.receive_flit(f, Dir::West, 0), std::logic_error);
  f.vc = kInvalidVc;
  EXPECT_THROW(iu.receive_flit(f, Dir::West, 0), std::logic_error);
}

TEST(InputUnit, WaitingForVaSemantics) {
  InputUnit iu(Dir::East, config());
  // Empty VC: not waiting.
  EXPECT_FALSE(iu.waiting_for_va(0, 10));

  iu.vc(0).allocate(3, 0);
  EXPECT_FALSE(iu.waiting_for_va(0, 10));  // reserved but head not arrived

  Flit f = head(3);
  f.vc = 0;
  iu.receive_flit(f, Dir::North, 5);
  EXPECT_FALSE(iu.waiting_for_va(0, 5));  // BW this cycle: eligible next
  EXPECT_TRUE(iu.waiting_for_va(0, 6));

  iu.assign_output(0, Dir::North, 2);
  EXPECT_FALSE(iu.waiting_for_va(0, 6));  // already allocated downstream
}

TEST(InputUnit, NewTrafficTowardFiltersByRoute) {
  // The new-traffic probe is a read of the owning router's VA request
  // matrix, which files each waiting head under its RC route.
  sim::StatRegistry stats;
  Router router(0, config(), stats);
  InputUnit& iu = router.input(Dir::Local);
  iu.vc(0).allocate(3, 0);
  Flit f = head(3);
  f.vc = 0;
  iu.receive_flit(f, Dir::North, 5);
  EXPECT_TRUE(router.has_new_traffic_toward(Dir::North, 6));
  EXPECT_FALSE(router.has_new_traffic_toward(Dir::South, 6));
}

TEST(InputUnit, AssignAndClearOutput) {
  InputUnit iu(Dir::East, config());
  iu.assign_output(2, Dir::South, 1);
  EXPECT_TRUE(iu.has_output(2));
  EXPECT_EQ(iu.out_port(2), Dir::South);
  EXPECT_EQ(iu.out_vc(2), 1);
  iu.clear_output(2);
  EXPECT_FALSE(iu.has_output(2));
}

TEST(InputUnit, GateCommandBaselineWakesEverything) {
  InputUnit iu(Dir::East, config());
  iu.vc(0).gate(0);
  iu.vc(1).gate(0);
  GateCommand cmd;  // gating_active = false
  iu.apply_gate_command(cmd, 0);
  EXPECT_TRUE(iu.vc(0).is_idle());
  EXPECT_TRUE(iu.vc(1).is_idle());
}

TEST(InputUnit, GateCommandKeepsExactlyOneAwake) {
  InputUnit iu(Dir::East, config());
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 2;
  // now = 1: fresh buffers are in their (trivial) wake window at cycle 0.
  iu.apply_gate_command(cmd, 1);
  EXPECT_TRUE(iu.vc(0).is_gated());
  EXPECT_TRUE(iu.vc(1).is_gated());
  EXPECT_TRUE(iu.vc(2).is_idle());
  EXPECT_TRUE(iu.vc(3).is_gated());
}

TEST(InputUnit, GateCommandDisabledGatesAllIdle) {
  InputUnit iu(Dir::East, config());
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = false;
  cmd.keep_vc = 1;  // valid VC-ID always driven, but not enabled
  iu.apply_gate_command(cmd, 1);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(iu.vc(v).is_gated());
}

TEST(InputUnit, GateCommandNeverTouchesActive) {
  InputUnit iu(Dir::East, config());
  iu.vc(1).allocate(9, 0);
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 0;
  iu.apply_gate_command(cmd, 1);
  EXPECT_TRUE(iu.vc(1).is_active());
  EXPECT_TRUE(iu.vc(0).is_idle());
  EXPECT_TRUE(iu.vc(2).is_gated());
}

TEST(InputUnit, GateCommandWakesKeptVc) {
  InputUnit iu(Dir::East, config());
  iu.vc(3).gate(0);
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 3;
  iu.apply_gate_command(cmd, 7);
  EXPECT_TRUE(iu.vc(3).is_idle());
}

TEST(InputUnit, SyncStressTracksPowerState) {
  InputUnit iu(Dir::East, config(2));
  iu.vc(1).gate(0);   // gated before any cycle elapses
  iu.sync_stress(2);  // cycles 0 and 1 elapse
  EXPECT_EQ(iu.trackers().at(0).stress_cycles(), 2u);
  EXPECT_EQ(iu.trackers().at(1).recovery_cycles(), 2u);
  EXPECT_DOUBLE_EQ(iu.trackers().at(0).duty_cycle_percent(), 100.0);
  EXPECT_DOUBLE_EQ(iu.trackers().at(1).duty_cycle_percent(), 0.0);
}

TEST(OutVcStateViewTest, ReflectsStates) {
  InputUnit iu(Dir::East, config(3));
  iu.vc(0).allocate(1, 0);
  iu.vc(2).gate(0);
  OutVcStateView view(&iu);
  EXPECT_EQ(view.num_vcs(), 3);
  EXPECT_TRUE(view.is_active(0));
  EXPECT_TRUE(view.is_idle(1));
  EXPECT_TRUE(view.is_recovery(2));
}

}  // namespace
}  // namespace nbtinoc::noc
