// Full-park skipping and the source horizons it rests on: an idle or
// all-gated fabric parks every component, and run() then jumps the clock to
// the next event (heap wake, sensor epoch) instead of stepping — bit-exact
// because each policy's decide() is a no-op at the gating fixed point.
// The per-source next_event_cycle contracts pin that a parked NI's heap
// wake never lands after a real fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/traffic/trace.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig mesh(int width, int vcs = 2) {
  NocConfig c;
  c.width = width;
  c.height = width;
  c.num_vcs = vcs;
  c.buffer_depth = 4;
  c.packet_length = 4;
  return c;
}

TEST(EventHorizon, AggregatesMinAndClampsToNow) {
  sim::EventHorizon h(100);
  EXPECT_EQ(h.horizon(), sim::kCycleNever);
  h.consider(500);
  h.consider(40);  // conservative past answer must not move time backwards
  EXPECT_EQ(h.horizon(), 100u);
  h.consider(sim::kCycleNever);
  EXPECT_EQ(h.horizon(), 100u);
}

TEST(Quiescence, SensorWiseMeshReachesAllGatedFixedPoint) {
  Network net(mesh(2));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  net.run(64);
  const auto all_fixed = [&net] {
    for (NodeId id = 0; id < net.num_routers(); ++id)
      if (!net.router_gating_fixed_point(id)) return false;
    return true;
  };
  ASSERT_TRUE(all_fixed());
  // Fixed point: stepping a parked-eligible mesh changes no gating state.
  const auto count_transitions = [&net] {
    std::uint64_t t = 0;
    for (NodeId id = 0; id < net.nodes(); ++id)
      for (int v = 0; v < net.config().total_vcs(); ++v)
        t += net.router(id).input(Dir::Local).vc(v).gate_transitions();
    return t;
  };
  const std::uint64_t transitions = count_transitions();
  for (int i = 0; i < 100; ++i) net.step();
  EXPECT_EQ(count_transitions(), transitions);
  EXPECT_TRUE(all_fixed());
  // A VC forced out of Recovery sits in its wake window: the policy will
  // re-gate it on a later cycle, so its router must not park.
  net.router(0).input(Dir::Local).vc(0).wake(net.clock().now());
  EXPECT_FALSE(net.router_gating_fixed_point(0));
}

TEST(Quiescence, IdleMeshFastForwardsToEndWithoutStepping) {
  Network net(mesh(4));
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.run(1'000'000);
  EXPECT_EQ(net.clock().now(), 1'000'000u);
  EXPECT_GE(net.skip_stats().cycles_skipped, 999'000u);
  for (double d : net.duty_cycles_percent(0, Dir::East)) EXPECT_DOUBLE_EQ(d, 100.0);
}

TEST(Quiescence, SensorEpochsFenceTheSkips) {
  // With a policy controller installed, an otherwise idle mesh must still
  // step every 1024-cycle sensor refresh, so no skip may span an epoch.
  Network net(mesh(2));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.run(100'000);
  const auto& stats = net.skip_stats();
  ASSERT_GT(stats.skips, 0u);
  EXPECT_LE(stats.cycles_skipped / stats.skips, pc.sensor.epoch_cycles);
  // ~97 epochs in 100k cycles: roughly one skip per epoch once settled.
  EXPECT_GE(stats.skips, 90u);
}

TEST(Quiescence, TraceReplayHorizonIsExact) {
  traffic::Trace trace;
  trace.add({/*cycle=*/100, /*src=*/0, /*dst=*/1, /*length=*/4});
  trace.add({/*cycle=*/900, /*src=*/0, /*dst=*/2, /*length=*/4});
  traffic::TraceReplaySource replay(traffic::TraceFile::from_trace(trace, 4, "horizon"), 0);
  EXPECT_EQ(replay.next_event_cycle(0), 100u);
  EXPECT_EQ(replay.next_event_cycle(150), 150u);  // slipped record: due now
  ASSERT_TRUE(replay.maybe_generate(100).has_value());
  EXPECT_EQ(replay.next_event_cycle(101), 900u);
  ASSERT_TRUE(replay.maybe_generate(900).has_value());
  EXPECT_EQ(replay.next_event_cycle(901), sim::kCycleNever);
}

TEST(Quiescence, SyntheticSourceHorizonNeverOvershoots) {
  traffic::DestinationPattern pattern(traffic::PatternKind::kUniform, 4, 4);
  traffic::SyntheticSource probe(0, 0.08, 4, pattern, 1234);
  traffic::SyntheticSource replay_src(0, 0.08, 4, pattern, 1234);
  // Collect the true fire cycles by stepping one twin...
  std::vector<sim::Cycle> fires;
  for (sim::Cycle t = 0; t < 20'000; ++t)
    if (probe.maybe_generate(t).has_value()) fires.push_back(t);
  ASSERT_FALSE(fires.empty());
  // ...then check the other twin's horizon from every prior cycle: it must
  // never claim a cycle past the next true fire.
  std::size_t next = 0;
  for (sim::Cycle t = 0; t < 20'000; ++t) {
    while (next < fires.size() && fires[next] < t) ++next;
    if (next >= fires.size()) break;
    const sim::Cycle horizon = replay_src.next_event_cycle(t);
    EXPECT_LE(horizon, fires[next]) << "at cycle " << t;
    if (replay_src.maybe_generate(t).has_value()) {
      EXPECT_EQ(t, fires[next]) << "fire drifted between twins";
    }
  }
}

TEST(Quiescence, ZeroRateSourceNeverFires) {
  traffic::DestinationPattern pattern(traffic::PatternKind::kUniform, 2, 2);
  traffic::SyntheticSource src(0, 0.0, 4, pattern, 9);
  EXPECT_EQ(src.next_event_cycle(0), sim::kCycleNever);
  EXPECT_EQ(src.next_event_cycle(123'456), sim::kCycleNever);
  EXPECT_FALSE(src.maybe_generate(0).has_value());
}

}  // namespace
}  // namespace nbtinoc::noc
