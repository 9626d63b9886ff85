#include "nbtinoc/core/policy.hpp"

#include <gtest/gtest.h>

#include "nbtinoc/noc/input_unit.hpp"

namespace nbtinoc::core {
namespace {

using noc::Dir;
using noc::GateCommand;
using noc::InputUnit;
using noc::OutVcStateView;

noc::NocConfig config(int vcs) {
  noc::NocConfig c;
  c.width = 2;
  c.height = 2;
  c.num_vcs = vcs;
  return c;
}

/// Builds an input unit whose VC states match the given list
/// (I = idle, A = active, R = recovery).
InputUnit make_port(const std::string& states) {
  InputUnit iu(Dir::East, config(static_cast<int>(states.size())));
  for (std::size_t i = 0; i < states.size(); ++i) {
    switch (states[i]) {
      case 'I':
        break;
      case 'A':
        iu.vc(static_cast<int>(i)).allocate(1 + i, 0);
        break;
      case 'R':
        iu.vc(static_cast<int>(i)).gate(0);
        break;
      default:
        throw std::invalid_argument("bad state char");
    }
  }
  return iu;
}

TEST(PolicyNames, RoundTrip) {
  for (auto kind : {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                    PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise}) {
    EXPECT_EQ(parse_policy(to_string(kind)), kind);
  }
  EXPECT_EQ(parse_policy("sw"), PolicyKind::kSensorWise);
  EXPECT_EQ(parse_policy("rr"), PolicyKind::kRrNoSensor);
  EXPECT_THROW(parse_policy("magic"), std::invalid_argument);
}

// ---------------- Algorithm 1: rr-no-sensor --------------------------------

TEST(RrNoSensor, NoTrafficDisablesEnable) {
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 2, false);
  EXPECT_TRUE(cmd.gating_active);
  EXPECT_FALSE(cmd.enable);
  // Lines 5-6: a valid VC-ID (the candidate) is still driven.
  EXPECT_EQ(cmd.keep_vc, 2);
}

TEST(RrNoSensor, PicksCandidateWhenIdle) {
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 1, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 1);
}

TEST(RrNoSensor, ScansForwardPastActive) {
  const InputUnit iu = make_port("IAAI");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 1, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 3);  // first idle/recovery at or after candidate 1
}

TEST(RrNoSensor, WrapsAround) {
  const InputUnit iu = make_port("IAAA");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 2, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 0);
}

TEST(RrNoSensor, RecoveringVcIsAlsoACandidate) {
  // Algorithm 1 line 10: is_idle OR is_recovery.
  const InputUnit iu = make_port("ARAA");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 0, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 1);
}

TEST(RrNoSensor, AllBusyDisables) {
  const InputUnit iu = make_port("AAAA");
  const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), 0, true);
  EXPECT_FALSE(cmd.enable);
}

TEST(RrNoSensor, CandidateRotationSpreadsChoice) {
  const InputUnit iu = make_port("IIII");
  for (int candidate = 0; candidate < 4; ++candidate) {
    const GateCommand cmd = rr_no_sensor_decide(OutVcStateView(&iu), candidate, true);
    EXPECT_EQ(cmd.keep_vc, candidate);
  }
}

// ---------------- Algorithm 2: sensor-wise ----------------------------------

TEST(SensorWise, NoTrafficGatesEverythingIdle) {
  const InputUnit iu = make_port("IRIA");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 0, false);
  EXPECT_TRUE(cmd.gating_active);
  EXPECT_FALSE(cmd.enable);  // downstream recovers all idle VCs
}

TEST(SensorWise, TrafficKeepsExactlyOneAwake) {
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 0, true);
  EXPECT_TRUE(cmd.enable);
  // MD=0 gated first, then 1, 2 in order; survivor is the last idle VC.
  EXPECT_EQ(cmd.keep_vc, 3);
}

TEST(SensorWise, NeverKeepsMostDegradedAwakeWhenAvoidable) {
  for (int md = 0; md < 4; ++md) {
    const InputUnit iu = make_port("IIII");
    const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), md, true);
    EXPECT_TRUE(cmd.enable);
    EXPECT_NE(cmd.keep_vc, md) << "md=" << md;
  }
}

TEST(SensorWise, MostDegradedGetsPriorityOverLowerIndices) {
  // Pool = {2,3}, MD = 3: without the lines 9-11 priority the ascending scan
  // would gate 2 and keep 3 (the MD) awake. With priority, MD=3 is gated and
  // 2 stays awake.
  const InputUnit iu = make_port("AAII");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 3, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 2);
}

TEST(SensorWise, MdKeptAwakeOnlyWhenItIsTheLastIdleVc) {
  // Pool = {1} and MD = 1: a new packet needs a VC, so the MD stays awake.
  const InputUnit iu = make_port("AIAA");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 1, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 1);
}

TEST(SensorWise, ActiveMdIsUntouchable) {
  const InputUnit iu = make_port("AIIA");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 0, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 2);
}

TEST(SensorWise, RecoveredVcsCountTowardThePool) {
  // Lines 5-8 restore recovered VCs to the idle pool before re-gating.
  const InputUnit iu = make_port("RRRR");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 1, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 3);
}

TEST(SensorWise, AllActiveYieldsNoEnable) {
  const InputUnit iu = make_port("AAAA");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 0, true);
  EXPECT_FALSE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, noc::kInvalidVc);
}

TEST(SensorWise, OutOfRangeMdToleratedGracefully) {
  const InputUnit iu = make_port("II");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 7, true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 1);
  const GateCommand neg = sensor_wise_decide(OutVcStateView(&iu), -1, true);
  EXPECT_TRUE(neg.enable);
}

TEST(SensorWiseNoTraffic, AlwaysReservesOneIdleVc) {
  // The variant is Algorithm 2 with boolTraffic forced to 1: even with no
  // packet waiting, one VC stays awake.
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), 1, /*bool_traffic=*/true);
  EXPECT_TRUE(cmd.enable);
  EXPECT_NE(cmd.keep_vc, noc::kInvalidVc);
}

// ---------------- extension: sensor-rank wear leveling ----------------------

TEST(SensorRank, KeepsHealthiestVcAwake) {
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = sensor_rank_decide(OutVcStateView(&iu), {0.185, 0.179, 0.182, 0.181}, true);
  EXPECT_TRUE(cmd.gating_active);
  EXPECT_TRUE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, 1);  // lowest Vth = least degraded
}

TEST(SensorRank, SkipsActiveVcs) {
  const InputUnit iu = make_port("AIIA");
  const GateCommand cmd = sensor_rank_decide(OutVcStateView(&iu), {0.170, 0.185, 0.182, 0.171}, true);
  EXPECT_EQ(cmd.keep_vc, 2);  // healthiest among the non-active {1,2}
}

TEST(SensorRank, NoTrafficRecoversAll) {
  const InputUnit iu = make_port("IIII");
  const GateCommand cmd = sensor_rank_decide(OutVcStateView(&iu), {0.18, 0.18, 0.18, 0.18}, false);
  EXPECT_TRUE(cmd.gating_active);
  EXPECT_FALSE(cmd.enable);
}

TEST(SensorRank, AllActiveNoEnable) {
  const InputUnit iu = make_port("AAAA");
  const GateCommand cmd = sensor_rank_decide(OutVcStateView(&iu), {0.18, 0.18, 0.18, 0.18}, true);
  EXPECT_FALSE(cmd.enable);
  EXPECT_EQ(cmd.keep_vc, noc::kInvalidVc);
}

TEST(SensorRank, RejectsSizeMismatch) {
  const InputUnit iu = make_port("II");
  EXPECT_THROW(sensor_rank_decide(OutVcStateView(&iu), {0.18}, true), std::invalid_argument);
}

TEST(PolicyNames, SensorRankRoundTrip) {
  EXPECT_EQ(parse_policy("sensor-rank"), PolicyKind::kSensorRank);
  EXPECT_EQ(to_string(PolicyKind::kSensorRank), "sensor-rank");
}

// Property sweep: for every VC count and MD choice with all VCs idle, the
// sensor-wise decision keeps exactly one VC awake and never the MD (unless
// it is the only one).
struct SwCase {
  int num_vcs;
  int md;
};

class SensorWiseSweep : public ::testing::TestWithParam<SwCase> {};

TEST_P(SensorWiseSweep, KeepsOneNonMdVc) {
  const auto [num_vcs, md] = GetParam();
  std::string states(static_cast<std::size_t>(num_vcs), 'I');
  const InputUnit iu = make_port(states);
  const GateCommand cmd = sensor_wise_decide(OutVcStateView(&iu), md, true);
  EXPECT_TRUE(cmd.enable);
  ASSERT_GE(cmd.keep_vc, 0);
  ASSERT_LT(cmd.keep_vc, num_vcs);
  if (num_vcs > 1) {
    EXPECT_NE(cmd.keep_vc, md);
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, SensorWiseSweep,
                         ::testing::Values(SwCase{1, 0}, SwCase{2, 0}, SwCase{2, 1}, SwCase{4, 0},
                                           SwCase{4, 1}, SwCase{4, 2}, SwCase{4, 3}, SwCase{8, 5}),
                         [](const auto& info) {
                           return "vcs" + std::to_string(info.param.num_vcs) + "_md" +
                                  std::to_string(info.param.md);
                         });

}  // namespace
}  // namespace nbtinoc::core
