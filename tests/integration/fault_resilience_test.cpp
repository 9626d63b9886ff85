// Fault-injection end-to-end: the storm may drop/corrupt every control
// message, but the datapath invariants must hold for every policy, a
// dropped or corrupted gate command must reach only the ports the plan
// targets and stay in range there, the health watchdogs must quarantine
// ports whose sensors stop making sense (and demonstrably run the rr
// fallback there), and a faulted sweep must stay bit-identical at any
// worker count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::core {
namespace {

sim::Scenario small_scenario(double inj = 0.1) {
  sim::Scenario s = sim::Scenario::synthetic(2, 2, inj);
  s.name = "fault-4core";
  s.warmup_cycles = 1'000;
  s.measure_cycles = 4'000;
  return s;
}

std::uint64_t fault_count(const RunResult& r, const std::string& key) {
  const auto it = r.fault_counters.find(key);
  return it == r.fault_counters.end() ? 0u : it->second;
}

TEST(FaultResilience, InvariantsHoldUnderStormForAllPolicies) {
  for (PolicyKind policy :
       {PolicyKind::kRrNoSensor, PolicyKind::kSensorWise, PolicyKind::kSensorRank}) {
    RunnerOptions opt;
    opt.faults = sim::FaultPlan::uniform(0.05);
    opt.check_invariants = true;
    const RunResult r = run_experiment(small_scenario(), policy, Workload::synthetic(), opt);
    // The storm really fired...
    EXPECT_GT(fault_count(r, "fault.gate_cmd_drops"), 0u) << to_string(policy);
    // ...traffic still flowed...
    EXPECT_GT(r.flits_ejected, 0u) << to_string(policy);
    // ...and no flit was lost, parked in a gated buffer, or deadlocked.
    EXPECT_TRUE(r.invariant_violations.empty())
        << to_string(policy) << ": " << r.invariant_violations.front();
  }
}

// The dateline VC classes and multi-NI local ports must not open a deadlock
// or conservation hole even when the storm drops gate commands: every
// topology runs clean under the same invariant checker.
TEST(FaultResilience, InvariantsHoldUnderStormOnEveryTopology) {
  struct TopoPoint {
    const char* topology;
    int width;
    int concentration;
  };
  for (const auto& [topology, width, concentration] :
       {TopoPoint{"mesh", 4, 1}, {"torus", 4, 1}, {"ring", 4, 1}, {"cmesh", 4, 2}}) {
    sim::Scenario s = sim::Scenario::synthetic(width, 2, 0.1);
    s.topology = topology;
    s.concentration = concentration;
    s.name = std::string("fault-") + topology;
    s.warmup_cycles = 1'000;
    s.measure_cycles = 4'000;
    RunnerOptions opt;
    opt.faults = sim::FaultPlan::uniform(0.05);
    opt.check_invariants = true;
    const RunResult r =
        run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), opt);
    EXPECT_GT(fault_count(r, "fault.gate_cmd_drops"), 0u) << topology;
    EXPECT_GT(r.flits_ejected, 0u) << topology;
    EXPECT_TRUE(r.invariant_violations.empty())
        << topology << ": " << r.invariant_violations.front();
  }
}

// --- Up_Down delivery rules ------------------------------------------------

std::uint64_t port_transitions(const PortResult& port) {
  std::uint64_t total = 0;
  for (std::uint64_t t : port.gate_transitions) total += t;
  return total;
}

// A plan that drops every gate command of one port (router 5 East of a
// 4x4 mesh): that port never gates, so every buffer stays powered all
// window long, and the storm touches nothing else — all 63 other ports
// still gate.
void expect_drops_freeze_only_the_targeted_port(const char* buffer_org, PolicyKind policy) {
  sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.1);
  s.buffer_org = buffer_org;
  s.name = std::string("drop-target-") + buffer_org;
  s.warmup_cycles = 1'000;
  s.measure_cycles = 4'000;
  RunnerOptions opt;
  opt.faults.gate_cmd_drop_rate = 1.0;
  const noc::PortKey targeted{5, noc::Dir::East};
  opt.faults.targets = {{static_cast<int>(targeted.router), static_cast<int>(targeted.port)}};
  const RunResult r = run_experiment(s, policy, Workload::synthetic(), opt);
  EXPECT_GT(fault_count(r, "fault.gate_cmd_drops"), 0u);
  ASSERT_EQ(r.ports.size(), 64u);
  for (const auto& [key, port] : r.ports) {
    if (key == targeted) {
      EXPECT_EQ(port_transitions(port), 0u);
      for (double duty : port.duty_percent) EXPECT_EQ(duty, 100.0);
    } else {
      EXPECT_GT(port_transitions(port), 0u)
          << "router " << key.router << " port " << noc::to_string(key.port);
    }
  }
}

TEST(FaultResilience, DroppedCommandsFreezeOnlyTheTargetedPort) {
  expect_drops_freeze_only_the_targeted_port("partitioned", PolicyKind::kSensorWise);
}

// Slot-form commands on a shared pool are dropped by the same rule.
TEST(FaultResilience, DroppedSlotCommandsFreezeOnlyTheTargetedPort) {
  expect_drops_freeze_only_the_targeted_port("shared", PolicyKind::kSensorWiseSlotMd);
}

// Every delivered command is corrupted, yet each corruption stays in range
// for the port it lands on — a VC rotation within the command's (vnet,
// class) subrange, or a slot rotation modulo the pool — so no apply throws
// and the datapath invariants hold on multi-vnet, multi-class and shared
// ports alike.
TEST(FaultResilience, FlippedCommandsStayInRangeOnEveryLayout) {
  struct Layout {
    const char* name;
    const char* topology;
    int vnets;
    const char* org;
    PolicyKind policy;
  };
  for (const Layout& l :
       {Layout{"2-vnet", "mesh", 2, "partitioned", PolicyKind::kSensorWise},
        Layout{"torus", "torus", 1, "partitioned", PolicyKind::kSensorWise},
        Layout{"shared", "mesh", 1, "shared", PolicyKind::kSensorWiseSlotMd}}) {
    SCOPED_TRACE(l.name);
    sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.1);
    s.topology = l.topology;
    s.num_vnets = l.vnets;
    s.buffer_org = l.org;
    s.name = std::string("flip-") + l.name;
    s.warmup_cycles = 500;
    s.measure_cycles = 2'000;
    RunnerOptions opt;
    opt.faults.gate_cmd_flip_rate = 1.0;
    opt.check_invariants = true;
    RunResult r;
    ASSERT_NO_THROW(r = run_experiment(s, l.policy, Workload::synthetic(), opt));
    EXPECT_GT(fault_count(r, "fault.gate_cmd_flips"), 0u);
    EXPECT_GT(r.flits_ejected, 0u);
    EXPECT_TRUE(r.invariant_violations.empty()) << r.invariant_violations.front();
  }
}

// The baseline never gates, but a corrupted command that kept nothing awake
// gains an enable bit and gating mode: at the one port the plan targets,
// the flipped commands switch gating on, and only there.
TEST(FaultResilience, FlippedBaselineCommandsGateOnlyTheTargetedPort) {
  sim::Scenario s = small_scenario();
  s.name = "flip-baseline";
  RunnerOptions opt;
  opt.faults.gate_cmd_flip_rate = 1.0;
  const noc::PortKey targeted{0, noc::Dir::East};
  opt.faults.targets = {{static_cast<int>(targeted.router), static_cast<int>(targeted.port)}};
  const RunResult r = run_experiment(s, PolicyKind::kBaseline, Workload::synthetic(), opt);
  EXPECT_GT(fault_count(r, "fault.gate_cmd_flips"), 0u);
  for (const auto& [key, port] : r.ports) {
    if (key == targeted)
      EXPECT_GT(port_transitions(port), 0u);
    else
      EXPECT_EQ(port_transitions(port), 0u)
          << "router " << key.router << " port " << noc::to_string(key.port);
  }
  EXPECT_EQ(r.total_gate_transitions, port_transitions(r.port(targeted.router, targeted.port)));
}

TEST(FaultResilience, SensorPoliciesQuarantineUnderStorm) {
  RunnerOptions opt;
  opt.faults = sim::FaultPlan::uniform(0.2);
  // The default 1024-cycle epoch gives this short run only ~5 Down_Up
  // refreshes; tighten it so the watchdogs see a few hundred epochs.
  opt.policy.sensor.epoch_cycles = 32;
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic(), opt);
  // Dead/stuck sensors and lost reports push ports into quarantine within
  // the run, and the transient fault process lets some recover.
  EXPECT_GT(fault_count(r, "fault.quarantines"), 0u);
  EXPECT_GT(fault_count(r, "fault.quarantined_port_cycles"), 0u);
}

// --- controller-level watchdog behavior -----------------------------------

noc::NocConfig mesh(int w = 2, int vcs = 4) {
  noc::NocConfig c;
  c.width = w;
  c.height = w;
  c.num_vcs = vcs;
  return c;
}

PolicyConfig sensor_wise_config() {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSensorWise;
  cfg.sensor.epoch_cycles = 1;  // every post_cycle is a Down_Up epoch
  return cfg;
}

void expect_same_command(const noc::GateCommand& a, const noc::GateCommand& b, sim::Cycle now) {
  EXPECT_EQ(a.gating_active, b.gating_active) << "cycle " << now;
  EXPECT_EQ(a.enable, b.enable) << "cycle " << now;
  EXPECT_EQ(a.keep_vc, b.keep_vc) << "cycle " << now;
  EXPECT_EQ(a.first_vc, b.first_vc) << "cycle " << now;
  EXPECT_EQ(a.range_vcs, b.range_vcs) << "cycle " << now;
}

// Each sensor policy degrades to the sensor-less policy of its granularity:
// the VC policies to rr-no-sensor, the slot policy (shared buffers) to
// rr-slot.
TEST(FaultResilience, StalePortFallsBackToRoundRobin) {
  struct Case {
    PolicyKind policy;
    PolicyKind peer;
    noc::BufferOrg org;
  };
  for (const Case& c : {Case{PolicyKind::kSensorWise, PolicyKind::kRrNoSensor,
                             noc::BufferOrg::kPartitioned},
                        Case{PolicyKind::kSensorWiseNoTraffic, PolicyKind::kRrNoSensor,
                             noc::BufferOrg::kPartitioned},
                        Case{PolicyKind::kSensorRank, PolicyKind::kRrNoSensor,
                             noc::BufferOrg::kPartitioned},
                        Case{PolicyKind::kSensorWiseSlotMd, PolicyKind::kRrSlot,
                             noc::BufferOrg::kShared}}) {
    SCOPED_TRACE(to_string(c.policy));
    noc::NocConfig config = mesh();
    config.buffer_org = c.org;
    noc::Network net(config);
    const nbti::NbtiModel model = nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {});
    PolicyConfig cfg = sensor_wise_config();
    cfg.kind = c.policy;
    PolicyGateController ctrl(net, cfg, model, {}, nbti::PvConfig{}, 1);
    PolicyConfig rr_cfg;
    rr_cfg.kind = c.peer;
    PolicyGateController rr(net, rr_cfg, model, {}, nbti::PvConfig{}, 1);

    sim::FaultPlan plan;
    plan.down_up_drop_rate = 1.0;  // every Down_Up report lost
    sim::FaultInjector injector(plan, /*seed=*/3);
    net.set_fault_injector(&injector);

    const noc::PortKey key{0, noc::Dir::East};
    const noc::OutVcStateView view(&net.router(0).input(noc::Dir::East));

    // Healthy (pre-quarantine): the sensor policy keeps (or gates) a
    // sensor-chosen VC or slot, which the rotating rr candidate cannot track.
    ASSERT_FALSE(ctrl.quarantined(key));
    bool differed = false;
    for (sim::Cycle now = 0; now < 8; ++now) {
      const noc::GateCommand a = ctrl.decide(key, view, true, now);
      const noc::GateCommand b = rr.decide(key, view, true, now);
      differed = differed || a.keep_vc != b.keep_vc || a.first_vc != b.first_vc;
    }
    EXPECT_TRUE(differed);

    // Starve the watchdog: staleness_epochs dropped reports -> quarantine.
    for (sim::Cycle now = 1; now <= 6; ++now) ctrl.post_cycle(now);
    ASSERT_TRUE(ctrl.quarantined(key));
    EXPECT_EQ(ctrl.quarantined_ports(), 12u);  // every port starves alike
    EXPECT_EQ(net.stats().counter("fault.quarantines"), 12u);

    // Quarantined: the sensor policy is now bit-for-bit its rr peer.
    for (sim::Cycle now = 10; now < 30; ++now)
      for (const bool traffic : {true, false})
        expect_same_command(ctrl.decide(key, view, traffic, now), rr.decide(key, view, traffic, now),
                            now);
  }
}

// Every sensor policy acts on the delivered Down_Up report. Off the fault
// plan — no plan at all, or a targeted plan that does not name the port —
// that report is the sensors' own reading, refreshed intact at every epoch
// (not the reading taken when the controller was built); only the named
// port's reports are lost.
TEST(FaultResilience, PortsOffThePlanGetTheirReportIntact) {
  noc::Network net(mesh());
  const nbti::NbtiModel model = nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {});
  PolicyConfig cfg = sensor_wise_config();
  cfg.sensor.epoch_cycles = 16;
  cfg.sensor.time_acceleration = 1e9;  // readings move by millivolts within the run
  PolicyGateController ctrl(net, cfg, model, {}, nbti::PvConfig{}, 1);
  ctrl.attach();
  traffic::install_uniform_traffic(net, 0.3, 11);

  // The construction-time readings, per port.
  auto first = sample_network_vths(net.config(), nbti::PvConfig{}, 1);
  for (auto& [key, bank] : first)
    for (std::size_t v = 0; v < bank.size(); ++v) bank[v] = ctrl.sensors(key).measured_vth(v);
  bool moved = false;
  const auto expect_intact = [&](sim::Cycle cycles, const noc::PortKey* skip) {
    for (sim::Cycle cycle = 0; cycle < cycles; ++cycle) {
      net.step();
      for (const auto& [key, bank] : first) {
        if (skip != nullptr && key == *skip) continue;
        for (std::size_t v = 0; v < bank.size(); ++v) {
          const double measured = ctrl.sensors(key).measured_vth(v);
          ASSERT_EQ(ctrl.effective_vth(key, static_cast<int>(v)), measured)
              << "router " << key.router << " port " << noc::to_string(key.port) << " vc " << v
              << " at cycle " << net.clock().now();
          moved = moved || measured != bank[v];
        }
      }
    }
  };
  expect_intact(1'000, nullptr);  // fault-free
  EXPECT_TRUE(moved);             // the check compared moving readings

  const noc::PortKey targeted{0, noc::Dir::East};
  sim::FaultPlan plan;
  plan.down_up_drop_rate = 1.0;
  plan.targets = {{static_cast<int>(targeted.router), static_cast<int>(targeted.port)}};
  sim::FaultInjector injector(plan, /*seed=*/3);
  net.set_fault_injector(&injector);
  expect_intact(1'000, &targeted);

  // The storm really hit the targeted port: quarantined on stale readings.
  EXPECT_TRUE(ctrl.quarantined(targeted));
  EXPECT_EQ(ctrl.quarantined_ports(), 1u);
  bool stale = false;
  for (int v = 0; v < 4; ++v)
    stale = stale || ctrl.effective_vth(targeted, v) !=
                         ctrl.sensors(targeted).measured_vth(static_cast<std::size_t>(v));
  EXPECT_TRUE(stale);
}

TEST(FaultResilience, DeadSensorsTripThePlausibilityWatchdog) {
  noc::Network net(mesh());
  const nbti::NbtiModel model = nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {});
  PolicyGateController ctrl(net, sensor_wise_config(), model, {}, nbti::PvConfig{}, 1);

  sim::FaultPlan plan;
  plan.sensor_death_rate = 1.0;  // every site dies on its first epoch
  plan.dead_reading_v = 0.0;     // rails well below plausible_min_v
  sim::FaultInjector injector(plan, 3);
  net.set_fault_injector(&injector);

  const noc::PortKey key{0, noc::Dir::East};
  ctrl.post_cycle(1);
  EXPECT_FALSE(ctrl.quarantined(key));  // one implausible epoch: not yet
  EXPECT_EQ(ctrl.effective_vth(key, 0), 0.0);
  ctrl.post_cycle(2);
  EXPECT_TRUE(ctrl.quarantined(key));  // implausible_epochs_to_quarantine = 2
}

TEST(FaultResilience, PortRecoversWhenReadingsReturn) {
  noc::Network net(mesh());
  const nbti::NbtiModel model = nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {});
  PolicyGateController ctrl(net, sensor_wise_config(), model, {}, nbti::PvConfig{}, 1);

  sim::FaultPlan starve;
  starve.down_up_drop_rate = 1.0;
  sim::FaultInjector blackout(starve, 3);
  net.set_fault_injector(&blackout);
  const noc::PortKey key{0, noc::Dir::East};
  for (sim::Cycle now = 1; now <= 6; ++now) ctrl.post_cycle(now);
  ASSERT_TRUE(ctrl.quarantined(key));

  // The link heals (reports flow again; an unrelated fault keeps the
  // injector active): healthy_epochs_to_recover clean epochs re-arm trust.
  sim::FaultPlan healed;
  healed.wake_fail_rate = 0.5;
  sim::FaultInjector flaky_wake(healed, 3);
  net.set_fault_injector(&flaky_wake);
  for (sim::Cycle now = 7; now <= 9; ++now) ctrl.post_cycle(now);
  EXPECT_TRUE(ctrl.quarantined(key));  // 3 clean epochs: one short
  ctrl.post_cycle(10);
  EXPECT_FALSE(ctrl.quarantined(key));
  EXPECT_EQ(net.stats().counter("fault.recoveries"), 12u);
}

// --- sweep determinism -----------------------------------------------------

TEST(FaultResilience, FaultedSweepIsBitIdenticalAtAnyWorkerCount) {
  sim::Scenario s = small_scenario();
  s.warmup_cycles = 500;
  s.measure_cycles = 2'000;

  std::vector<std::string> reference;
  for (unsigned workers : {1u, 2u, 8u}) {
    SweepOptions opt;
    opt.workers = workers;
    opt.runner.faults = sim::FaultPlan::uniform(0.02);
    SweepRunner sweep{opt};
    sweep.add_grid({s}, {PolicyKind::kRrNoSensor, PolicyKind::kSensorWise,
                         PolicyKind::kSensorRank});
    const SweepResult results = sweep.run();
    std::vector<std::string> jsons;
    for (const auto& point : results) jsons.push_back(to_json(point.result));
    if (reference.empty()) {
      reference = jsons;
      // The storm fired: nonzero rates must not silently no-op.
      for (const auto& point : results)
        EXPECT_FALSE(point.result.fault_counters.empty()) << point.point.describe();
    } else {
      ASSERT_EQ(jsons.size(), reference.size());
      for (std::size_t i = 0; i < jsons.size(); ++i)
        EXPECT_EQ(jsons[i], reference[i]) << "point " << i << " at " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace nbtinoc::core
