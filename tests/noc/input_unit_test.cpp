#include "nbtinoc/noc/input_unit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

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

Flit flit_of(FlitType type, PacketId pkt, int vc) {
  Flit f;
  f.type = type;
  f.packet = pkt;
  f.vc = vc;
  return f;
}

// The (pending_va, routed) bits of vc v, as a pair for one EXPECT_EQ.
std::pair<bool, bool> masks(const InputUnit& iu, int v) {
  return {iu.pending_va().test(static_cast<std::size_t>(v)),
          iu.routed().test(static_cast<std::size_t>(v))};
}
constexpr std::pair<bool, bool> kNoWork{false, false};
constexpr std::pair<bool, bool> kPending{true, false};
constexpr std::pair<bool, bool> kRouted{false, true};

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

TEST(InputUnit, NewTrafficTowardWaitsForThePipeline) {
  // Two extra pipeline stages: a head written at cycle 5 is pending at
  // once but joins the VA request matrix only from cycle 8 (5 + 2 < now).
  NocConfig c = config();
  c.extra_pipeline_stages = 2;
  sim::StatRegistry stats;
  Router router(0, c, stats);
  InputUnit& iu = router.input(Dir::Local);
  iu.vc(1).allocate(3, 0);
  iu.receive_flit(flit_of(FlitType::Head, 3, 1), Dir::North, 5);
  EXPECT_TRUE(iu.pending_va().test(1));
  for (const sim::Cycle now : {6, 7}) EXPECT_FALSE(router.has_new_traffic_toward(Dir::North, now));
  EXPECT_TRUE(router.has_new_traffic_toward(Dir::North, 8));
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

// --- work masks: every transition, each against the VC-state recount -------

TEST(InputUnit, WorkMasksFollowAPacketToACardinalPort) {
  InputUnit iu(Dir::East, config());
  iu.vc(2).allocate(7, 0);
  EXPECT_EQ(masks(iu, 2), kNoWork);  // reserved, head not arrived
  iu.receive_flit(flit_of(FlitType::Head, 7, 2), Dir::North, 5);
  EXPECT_EQ(masks(iu, 2), kPending);  // pending even before it is VA-eligible
  EXPECT_TRUE(iu.holds_unassigned_head(2));
  iu.receive_flit(flit_of(FlitType::Body, 7, 2), Dir::North, 6);
  EXPECT_EQ(masks(iu, 2), kPending);  // a body flit changes nothing

  iu.assign_output(2, Dir::North, 1);
  EXPECT_EQ(masks(iu, 2), kRouted);
  iu.vc(2).pop();  // head leaves: the body flit fronts a routed VC
  EXPECT_EQ(masks(iu, 2), kRouted);
  iu.receive_flit(flit_of(FlitType::Tail, 7, 2), Dir::North, 7);
  iu.vc(2).pop();
  iu.vc(2).pop();  // tail leaves: the VC is Idle again
  EXPECT_EQ(masks(iu, 2), kRouted);  // until SA releases the allocation
  iu.clear_output(2);
  EXPECT_EQ(masks(iu, 2), kNoWork);
  for (const int v : {0, 1, 3}) EXPECT_EQ(masks(iu, v), kNoWork) << "vc " << v;
}

TEST(InputUnit, WorkMasksAssignToLocal) {
  // Ejection is allocated at once (downstream VC 0): a single-flit packet
  // goes pending -> routed -> nothing.
  InputUnit iu(Dir::West, config());
  iu.vc(0).allocate(4, 0);
  iu.receive_flit(flit_of(FlitType::HeadTail, 4, 0), Dir::Local, 3);
  EXPECT_EQ(masks(iu, 0), kPending);
  iu.assign_output(0, Dir::Local, 0);
  EXPECT_EQ(masks(iu, 0), kRouted);
  EXPECT_FALSE(iu.holds_unassigned_head(0));
  iu.vc(0).pop();
  iu.clear_output(0);
  EXPECT_EQ(masks(iu, 0), kNoWork);
}

TEST(InputUnit, WorkMasksClearedByPurge) {
  InputUnit iu(Dir::North, config());
  iu.vc(0).allocate(1, 0);
  iu.receive_flit(flit_of(FlitType::Head, 1, 0), Dir::South, 2);  // pending
  iu.vc(3).allocate(2, 0);
  iu.receive_flit(flit_of(FlitType::Head, 2, 3), Dir::East, 2);
  iu.assign_output(3, Dir::East, 0);  // routed
  EXPECT_EQ(iu.purge_vc(0), 1);
  EXPECT_EQ(iu.purge_vc(3), 1);
  EXPECT_EQ(masks(iu, 0), kNoWork);
  EXPECT_EQ(masks(iu, 3), kNoWork);
  EXPECT_FALSE(iu.pending_va().any());
  EXPECT_FALSE(iu.routed().any());
}

TEST(InputUnit, WorkMasksSurviveSaveLoadAndMove) {
  // Mid-packet: vc 1 routed with a body flit at its front, vc 2 pending
  // with a head, vc 0 reserved with nothing buffered yet. A load into a
  // fresh unit rebuilds the masks from the VC state; a move carries them.
  InputUnit iu(Dir::South, config());
  iu.vc(0).allocate(8, 0);
  iu.vc(1).allocate(9, 0);
  iu.receive_flit(flit_of(FlitType::Head, 9, 1), Dir::West, 1);
  iu.receive_flit(flit_of(FlitType::Body, 9, 1), Dir::West, 2);
  iu.assign_output(1, Dir::West, 3);
  iu.vc(1).pop();
  iu.vc(2).allocate(10, 0);
  iu.receive_flit(flit_of(FlitType::Head, 10, 2), Dir::Local, 3);

  sim::SnapshotWriter w;
  iu.save(w);
  InputUnit restored(Dir::South, config());
  sim::SnapshotReader r(w.data());
  restored.load(r);
  InputUnit moved(std::move(restored));
  for (int v = 0; v < iu.num_vcs(); ++v) EXPECT_EQ(masks(moved, v), masks(iu, v)) << "vc " << v;
  EXPECT_EQ(masks(moved, 0), kNoWork);
  EXPECT_EQ(masks(moved, 1), kRouted);
  EXPECT_EQ(masks(moved, 2), kPending);
  EXPECT_TRUE(moved.waiting_for_va(2, 4));
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

/// Expects apply_gate_command to reject `cmd` with a message naming `what`.
void expect_malformed(InputUnit& iu, const GateCommand& cmd, const std::string& what) {
  try {
    iu.apply_gate_command(cmd, 1);
    ADD_FAILURE() << "accepted a command with a bad " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(InputUnit, GateCommandRejectsMalformedVcForm) {
  InputUnit iu(Dir::East, config());  // 4 VCs
  GateCommand cmd;
  cmd.gating_active = true;
  for (const int first : {-1, 4}) {
    cmd.first_vc = first;
    expect_malformed(iu, cmd, "first_vc " + std::to_string(first) + " outside port of 4 VCs");
  }
  cmd.first_vc = 0;
  for (const int range : {0, -2}) {
    cmd.range_vcs = range;
    expect_malformed(iu, cmd, "range_vcs must be positive or -1");
  }
  // keep_vc is checked against the command's range, on both sides of it.
  cmd.first_vc = 1;
  cmd.range_vcs = 2;
  cmd.enable = true;
  for (const int keep : {0, 3}) {
    cmd.keep_vc = keep;
    expect_malformed(iu, cmd, "keep_vc " + std::to_string(keep) + " outside command range [1, 3)");
  }
  // Nothing was applied: every VC is still idle.
  for (int v = 0; v < iu.num_vcs(); ++v) EXPECT_TRUE(iu.vc(v).is_idle()) << "vc " << v;
}

NocConfig shared_config() {
  NocConfig c = config(2, 4);  // 8 slots, 6 of them shared
  c.buffer_org = BufferOrg::kShared;
  return c;
}

TEST(InputUnit, GateCommandRejectsMalformedSlotForm) {
  InputUnit iu(Dir::East, shared_config());
  GateCommand cmd;
  cmd.gating_active = true;
  for (const int first : {-1, 9}) {
    cmd.first_vc = first;
    expect_malformed(iu, cmd, "first slot " + std::to_string(first) + " outside pool of 8 slots");
  }
  cmd.first_vc = 0;
  cmd.range_vcs = -2;
  expect_malformed(iu, cmd, "slot range must be non-negative or -1");
  cmd.range_vcs = -1;
  cmd.enable = true;
  for (const int slot : {-2, 8}) {
    cmd.keep_vc = slot;
    expect_malformed(iu, cmd, "wake slot " + std::to_string(slot) + " outside pool of 8 slots");
  }
  EXPECT_EQ(iu.pool()->gated_slots(), 0);
}

TEST(InputUnit, SlotBaselineWakesEveryGatedSlot) {
  InputUnit iu(Dir::East, shared_config());
  SharedBufferPool& pool = *iu.pool();
  GateCommand gate_all;
  gate_all.gating_active = true;
  iu.apply_gate_command(gate_all, 1);
  ASSERT_EQ(pool.gated_slots(), pool.shared_capacity());
  // The baseline command wakes every gated slot, and nothing else.
  iu.apply_gate_command(GateCommand{}, 2);
  EXPECT_EQ(pool.gated_slots(), 0);
  for (int s = 0; s < pool.num_slots(); ++s)
    EXPECT_NE(pool.slot_state(s), SharedBufferPool::SlotState::kGated) << "slot " << s;
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
