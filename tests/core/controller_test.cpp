#include "nbtinoc/core/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::core {
namespace {

noc::NocConfig config(int w = 2, int vcs = 2) {
  noc::NocConfig c;
  c.width = w;
  c.height = w;
  c.num_vcs = vcs;
  return c;
}

nbti::NbtiModel model() { return nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {}); }

nbti::PvConfig pv() { return nbti::PvConfig{}; }

TEST(SampleNetworkVths, CoversExactlyTheExistingPorts) {
  const auto vths = sample_network_vths(config(2, 2), pv(), 42);
  // 2x2 mesh: each router has 2 mesh inputs + Local = 3 ports, 4 routers.
  EXPECT_EQ(vths.size(), 12u);
  for (const auto& [key, bank] : vths) EXPECT_EQ(bank.size(), 2u);
  EXPECT_TRUE(vths.count(noc::PortKey{0, noc::Dir::East}));
  EXPECT_TRUE(vths.count(noc::PortKey{0, noc::Dir::Local}));
  EXPECT_FALSE(vths.count(noc::PortKey{0, noc::Dir::West}));
  EXPECT_FALSE(vths.count(noc::PortKey{0, noc::Dir::North}));
}

TEST(SampleNetworkVths, DeterministicPerSeed) {
  const auto a = sample_network_vths(config(), pv(), 7);
  const auto b = sample_network_vths(config(), pv(), 7);
  EXPECT_EQ(a, b);
  const auto c = sample_network_vths(config(), pv(), 8);
  EXPECT_NE(a, c);
}

TEST(SampleNetworkVths, SixteenCoreCenterRouterHasFivePorts) {
  const auto vths = sample_network_vths(config(4, 4), pv(), 1);
  int ports_r5 = 0;
  for (const auto& [key, bank] : vths)
    if (key.router == 5) ++ports_r5;
  EXPECT_EQ(ports_r5, 5);
}

TEST(PolicyConfigValidate, RejectsZeroPeriodsWithActionableMessages) {
  PolicyConfig cfg;
  EXPECT_NO_THROW(cfg.validate());  // defaults are valid
  cfg.decision_period = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PolicyConfig{};
  cfg.rr_rotation_period = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = PolicyConfig{};
  cfg.sensor.epoch_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // run_experiment validates the policy config up front, whichever policy
  // kind ends up using the bad field.
  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.warmup_cycles = 100;
  s.measure_cycles = 500;
  RunnerOptions ropt;
  ropt.policy.rr_rotation_period = 0;
  EXPECT_THROW(run_experiment(s, PolicyKind::kRrNoSensor, Workload::synthetic(), ropt),
               std::invalid_argument);
}

TEST(PolicyGateController, NameMatchesKind) {
  noc::Network net(config());
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  EXPECT_STREQ(ctrl.name(), "sensor-wise");
  EXPECT_EQ(ctrl.kind(), PolicyKind::kSensorWise);
}

TEST(PolicyGateController, InitialVthsMatchSampler) {
  noc::Network net(config());
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 99);
  const auto expected = sample_network_vths(net.config(), pv(), 99);
  for (const auto& [key, bank] : expected) EXPECT_EQ(ctrl.initial_vths(key), bank);
}

TEST(PolicyGateController, MostDegradedIsArgmaxOfInitialVths) {
  noc::Network net(config());
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 5);
  for (const auto key :
       {noc::PortKey{0, noc::Dir::East}, noc::PortKey{3, noc::Dir::Local}}) {
    const auto& vths = ctrl.initial_vths(key);
    const int md = ctrl.most_degraded(key);
    for (std::size_t i = 0; i < vths.size(); ++i)
      EXPECT_LE(vths[i], vths[static_cast<std::size_t>(md)]);
  }
}

TEST(PolicyGateController, BaselineDecidesNoGating) {
  noc::Network net(config());
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kBaseline;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto cmd = ctrl.decide({0, noc::Dir::East}, view, true, 0);
  EXPECT_FALSE(cmd.gating_active);
}

TEST(PolicyGateController, RrCandidateRotatesOnTimeBasis) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kRrNoSensor;
  cfg.rr_rotation_period = 2;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  // candidate = (now / 2) % 4
  EXPECT_EQ(ctrl.decide({0, noc::Dir::East}, view, true, 0).keep_vc, 0);
  EXPECT_EQ(ctrl.decide({0, noc::Dir::East}, view, true, 1).keep_vc, 0);
  EXPECT_EQ(ctrl.decide({0, noc::Dir::East}, view, true, 2).keep_vc, 1);
  EXPECT_EQ(ctrl.decide({0, noc::Dir::East}, view, true, 8).keep_vc, 0);
}

TEST(PolicyGateController, SensorWiseAvoidsMeasuredMd) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::PortKey key{0, noc::Dir::East};
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto cmd = ctrl.decide(key, view, true, 0);
  EXPECT_TRUE(cmd.enable);
  EXPECT_NE(cmd.keep_vc, ctrl.most_degraded(key));
}

TEST(PolicyGateController, SensorWiseNoTrafficAlwaysEnables) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWiseNoTraffic;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto cmd = ctrl.decide({0, noc::Dir::East}, view, /*new_traffic=*/false, 0);
  EXPECT_TRUE(cmd.enable);  // cannot know that no packet is coming
}

TEST(PolicyGateController, AttachInstallsOnNetwork) {
  noc::Network net(config());
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  ctrl.attach();
  EXPECT_EQ(&net.gate_controller(), &ctrl);
  net.set_gate_controller(nullptr);
  EXPECT_STREQ(net.gate_controller().name(), "baseline");
}

TEST(PolicyGateController, DecisionPeriodHoldsCommands) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kRrNoSensor;
  cfg.decision_period = 10;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::PortKey key{0, noc::Dir::East};
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto first = ctrl.decide(key, view, true, 0);
  // The rr candidate rotates every cycle, but the held decision must not.
  const auto held = ctrl.decide(key, view, true, 5);
  EXPECT_EQ(held.keep_vc, first.keep_vc);
  const auto refreshed = ctrl.decide(key, view, true, 10);
  EXPECT_NE(refreshed.keep_vc, first.keep_vc);
}

TEST(PolicyGateController, NewTrafficOverridesHeldDisable) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  cfg.decision_period = 100;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 1);
  const noc::PortKey key{0, noc::Dir::East};
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto idle_cmd = ctrl.decide(key, view, /*new_traffic=*/false, 0);
  EXPECT_FALSE(idle_cmd.enable);
  // A packet shows up two cycles later: the held "all gated" decision must
  // not stall it for 98 more cycles.
  const auto woken = ctrl.decide(key, view, /*new_traffic=*/true, 2);
  EXPECT_TRUE(woken.enable);
}

TEST(PolicyGateController, SensorRankKeepsHealthiest) {
  noc::Network net(config(2, 4));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorRank;
  PolicyGateController ctrl(net, cfg, m, {}, pv(), 5);
  const noc::PortKey key{0, noc::Dir::East};
  const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));
  const auto cmd = ctrl.decide(key, view, true, 0);
  ASSERT_TRUE(cmd.enable);
  const auto& vths = ctrl.initial_vths(key);
  for (double v : vths) EXPECT_GE(v, vths[static_cast<std::size_t>(cmd.keep_vc)]);
}

TEST(PolicyGateController, ExplicitVthsMustNameExactlyTheExistingPorts) {
  noc::Network net(config(2, 2));
  const nbti::NbtiModel m = model();
  const auto exact = sample_network_vths(net.config(), pv(), 3);
  EXPECT_NO_THROW(PolicyGateController(net, PolicyConfig{}, m, {}, exact));

  // Router 0 sits in the mesh corner, so it has no West input port; the
  // 2x2 mesh has routers 0-3. Each bad key is tried on top of the exact
  // map, and in place of an existing port (so the key count still fits).
  const noc::PortKey replaced{0, noc::Dir::East};
  for (const noc::PortKey bad : {noc::PortKey{0, noc::Dir::West}, noc::PortKey{-1, noc::Dir::Local},
                                 noc::PortKey{4, noc::Dir::Local}}) {
    auto added = exact;
    added.emplace(bad, exact.at(replaced));
    EXPECT_THROW(PolicyGateController(net, PolicyConfig{}, m, {}, added), std::invalid_argument)
        << "router " << bad.router << " port " << static_cast<int>(bad.port) << " added";
    auto swapped = added;
    swapped.erase(replaced);
    EXPECT_THROW(PolicyGateController(net, PolicyConfig{}, m, {}, swapped), std::invalid_argument)
        << "router " << bad.router << " port " << static_cast<int>(bad.port) << " swapped in";
  }

  auto missing = exact;
  missing.erase(replaced);
  EXPECT_THROW(PolicyGateController(net, PolicyConfig{}, m, {}, missing), std::invalid_argument);
}

TEST(PolicyGateController, PostCycleRefreshesSensorsFromTrackers) {
  noc::Network net(config(2, 2));
  const nbti::NbtiModel m = model();
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  cfg.sensor.epoch_cycles = 1;
  cfg.sensor.time_acceleration = 1e12;  // exaggerate aging within the test
  // Zero PV spread so the ranking is purely stress-driven.
  nbti::PvConfig flat;
  flat.vth_sigma_v = 0.0;
  PolicyGateController ctrl(net, cfg, m, {}, flat, 1);
  const noc::PortKey key{0, noc::Dir::East};
  // Stress VC1 only.
  auto& iu = net.router(0).input(noc::Dir::East);
  iu.vc(0).gate(0);
  iu.sync_stress(1000);  // 1000 cycles elapse: VC0 recovers, VC1 stresses
  // Advance the network clock so elapsed time is nonzero.
  net.run(2);
  ctrl.post_cycle(net.clock().now());
  EXPECT_EQ(ctrl.most_degraded(key), 1);
}

// The horizon is the post-cycle fence, which must stay the earliest sensor
// epoch across ports at every cycle, or a skipping run would land on the
// wrong cycle. With an injector installed it is pinned to now.
TEST(PolicyGateController, HorizonIsTheEarliestSensorEpoch) {
  const sim::Scenario s = sim::Scenario::synthetic(4, 2, 0.005);
  noc::Network net(noc_config_of(s));
  const nbti::NbtiModel m = calibrated_model_of(s);
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  cfg.sensor.epoch_cycles = 100;
  PolicyGateController ctrl(net, cfg, m, operating_point_of(s), pv_config_of(s), s.pv_seed());
  ctrl.attach();
  traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, s.injection_rate,
                                     s.traffic_seed());
  const auto earliest_epoch = [&] {
    sim::Cycle earliest = sim::kCycleNever;
    for (noc::NodeId id = 0; id < net.num_routers(); ++id)
      for (int p = 0; p < noc::kNumDirs; ++p)
        if (net.router(id).has_input(static_cast<noc::Dir>(p)))
          earliest = std::min(
              earliest, ctrl.sensors({id, static_cast<noc::Dir>(p)}).next_refresh_cycle());
    return earliest;
  };
  for (int i = 0; i < 1'000; ++i) {
    const sim::Cycle now = net.clock().now();
    ASSERT_EQ(ctrl.next_event_cycle(now), std::max(earliest_epoch(), now)) << "cycle " << now;
    net.run(1);
  }
  EXPECT_GT(earliest_epoch(), 900u);  // the sensors did refresh along the way

  sim::FaultInjector injector(sim::FaultPlan::uniform(0.01), s.fault_seed());
  injector.bind_stats(&net.stats());
  net.set_fault_injector(&injector);
  for (int i = 0; i < 10; ++i) {
    const sim::Cycle now = net.clock().now();
    EXPECT_EQ(ctrl.next_event_cycle(now), now);
    net.run(1);
  }
  net.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace nbtinoc::core
