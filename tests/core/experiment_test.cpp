#include "nbtinoc/core/experiment.hpp"

#include <gtest/gtest.h>

namespace nbtinoc::core {
namespace {

sim::Scenario small_scenario(int vcs = 2, double rate = 0.2) {
  sim::Scenario s = sim::Scenario::synthetic(2, vcs, rate);
  s.warmup_cycles = 2'000;
  s.measure_cycles = 10'000;
  return s;
}

TEST(Workload, Factories) {
  const Workload syn = Workload::synthetic(traffic::PatternKind::kTranspose);
  EXPECT_EQ(syn.kind, Workload::Kind::kSynthetic);
  EXPECT_EQ(syn.pattern, traffic::PatternKind::kTranspose);

  traffic::BenchmarkMix mix;
  mix.names = {"fft", "lu", "radix", "barnes"};
  const Workload app = Workload::benchmark_mix(mix, 3);
  EXPECT_EQ(app.kind, Workload::Kind::kBenchmarkMix);
  EXPECT_EQ(app.seed_salt, 3u);
}

TEST(OperatingPoint, DerivedFromScenario) {
  sim::Scenario s = small_scenario();
  s.tech = sim::Technology::node_32nm();
  const auto op = operating_point_of(s);
  EXPECT_DOUBLE_EQ(op.vth_v, 0.160);
  EXPECT_DOUBLE_EQ(op.vdd_v, 1.2);
  EXPECT_DOUBLE_EQ(op.clock_period_s, 1e-9);
}

TEST(PvConfigOf, UsesTechnology) {
  const auto pv = pv_config_of(small_scenario());
  EXPECT_DOUBLE_EQ(pv.vth_mean_v, 0.180);
  EXPECT_DOUBLE_EQ(pv.vth_sigma_v, 0.005);
}

TEST(RunExperiment, ProducesAllPorts) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kBaseline, Workload::synthetic());
  EXPECT_EQ(r.ports.size(), 12u);  // 2x2: 3 input ports per router
  const PortResult& p = r.port(0, noc::Dir::East);
  EXPECT_EQ(p.duty_percent.size(), 2u);
  EXPECT_EQ(p.initial_vth_v.size(), 2u);
  EXPECT_THROW(r.port(0, noc::Dir::West), std::invalid_argument);
}

TEST(RunExperiment, BaselineDutyIsAlwaysHundred) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kBaseline, Workload::synthetic());
  for (const auto& [key, port] : r.ports)
    for (double d : port.duty_percent) EXPECT_DOUBLE_EQ(d, 100.0);
}

TEST(RunExperiment, TrafficFlowsAndLatencyMeasured) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  EXPECT_GT(r.flits_injected, 100u);
  EXPECT_GT(r.packets_ejected, 10u);
  EXPECT_GT(r.avg_packet_latency, 10.0);
  EXPECT_GT(r.throughput_flits_per_cycle_per_node, 0.0);
}

TEST(RunExperiment, SamePvSeedAcrossPolicies) {
  // Paper §IV-A: the same Vth values for every policy on one scenario.
  const RunResult a =
      run_experiment(small_scenario(), PolicyKind::kRrNoSensor, Workload::synthetic());
  const RunResult b =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  for (const auto& [key, port] : a.ports) {
    EXPECT_EQ(port.initial_vth_v, b.ports.at(key).initial_vth_v);
    EXPECT_EQ(port.most_degraded, b.ports.at(key).most_degraded);
  }
}

TEST(RunExperiment, IdenticalOfferedLoadAcrossPolicies) {
  // The offered packet stream derives from the scenario seed only; the
  // flit *serialization* timing may differ by a handful of flits at the
  // measurement cutoff, but the generated packets are identical.
  const RunResult a =
      run_experiment(small_scenario(), PolicyKind::kBaseline, Workload::synthetic());
  const RunResult b =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_NEAR(static_cast<double>(a.flits_injected), static_cast<double>(b.flits_injected),
              static_cast<double>(a.flits_injected) * 0.02);
}

TEST(RunExperiment, DeterministicEndToEnd) {
  const RunResult a =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  const RunResult b =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  for (const auto& [key, port] : a.ports)
    EXPECT_EQ(port.duty_percent, b.ports.at(key).duty_percent);
  EXPECT_DOUBLE_EQ(a.avg_packet_latency, b.avg_packet_latency);
}

TEST(RunExperiment, MdDutyAccessor) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  const PortResult& p = r.port(0, noc::Dir::East);
  EXPECT_DOUBLE_EQ(r.md_duty(0, noc::Dir::East),
                   p.duty_percent[static_cast<std::size_t>(p.most_degraded)]);
}

TEST(RunExperiment, BenchmarkMixWorkloadRuns) {
  sim::Scenario s = small_scenario();
  s.warmup_cycles = 2'000;
  s.measure_cycles = 30'000;
  const Workload w = Workload::benchmark_mix(traffic::random_mix(4, 11));
  const RunResult r = run_experiment(s, PolicyKind::kSensorWise, w);
  EXPECT_GT(r.packets_ejected, 0u);
}

TEST(RunExperiment, SeedSaltChangesTrafficNotSilicon) {
  sim::Scenario s = small_scenario();
  const Workload w1 = Workload::benchmark_mix(traffic::random_mix(4, 1), /*salt=*/1);
  const Workload w2 = Workload::benchmark_mix(traffic::random_mix(4, 1), /*salt=*/2);
  const RunResult a = run_experiment(s, PolicyKind::kSensorWise, w1);
  const RunResult b = run_experiment(s, PolicyKind::kSensorWise, w2);
  EXPECT_NE(a.flits_injected, b.flits_injected);  // different traffic streams
  for (const auto& [key, port] : a.ports)
    EXPECT_EQ(port.initial_vth_v, b.ports.at(key).initial_vth_v);  // same silicon
}

TEST(RunExperiment, PhitConversionAppliedToThroughput) {
  // Throughput in phits/cycle/node approaches rate * phits_per_flit.
  sim::Scenario s = small_scenario(2, 0.1);
  s.warmup_cycles = 5'000;
  s.measure_cycles = 50'000;
  const RunResult r = run_experiment(s, PolicyKind::kBaseline, Workload::synthetic());
  EXPECT_NEAR(r.throughput_flits_per_cycle_per_node, 0.1 * s.phits_per_flit(), 0.03);
}

TEST(RunExperiment, JsonSerialization) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  const std::string json = to_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"policy\":\"sensor-wise\""), std::string::npos);
  EXPECT_NE(json.find("\"duty_percent\":["), std::string::npos);
  EXPECT_NE(json.find("\"most_degraded\":"), std::string::npos);
  EXPECT_NE(json.find("\"packets_offered\":"), std::string::npos);
  // 12 ports on a 2x2 mesh.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"router\":", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 12u);
}

TEST(RunExperiment, ActivityOfIsConsistent) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kSensorWise, Workload::synthetic());
  const power::NocActivity a = activity_of(r);
  EXPECT_EQ(a.buffer_reads, r.flits_forwarded + r.flits_ejected_router);
  EXPECT_EQ(a.buffer_writes, a.buffer_reads);
  EXPECT_GT(a.powered_buffer_cycles, 0u);
  EXPECT_GT(a.gated_buffer_cycles, 0u);  // sensor-wise gates plenty
  // Totals add up to (#VC buffers) x measure_cycles.
  const std::uint64_t expected_total =
      static_cast<std::uint64_t>(r.ports.size()) * 2ULL * r.scenario.measure_cycles;
  EXPECT_NEAR(static_cast<double>(a.powered_buffer_cycles + a.gated_buffer_cycles),
              static_cast<double>(expected_total), 2.0 * static_cast<double>(r.ports.size()));
  EXPECT_DOUBLE_EQ(a.window_seconds,
                   static_cast<double>(r.scenario.measure_cycles) * r.scenario.clock_period_s);
}

TEST(RunExperiment, BaselineActivityNeverGates) {
  const RunResult r =
      run_experiment(small_scenario(), PolicyKind::kBaseline, Workload::synthetic());
  const power::NocActivity a = activity_of(r);
  EXPECT_EQ(a.gated_buffer_cycles, 0u);
}

TEST(NocConfigOf, ScalesFlitQuantitiesToPhits) {
  sim::Scenario s = small_scenario();
  s.topology = "cmesh";
  s.concentration = 2;
  s.routing = "yx";
  s.buffer_org = "shared";
  s.shared_reserve = 2;
  s.wakeup_latency = 3;
  s.router_stages = 5;
  const noc::NocConfig c = noc_config_of(s);
  const int ppf = s.phits_per_flit();
  EXPECT_EQ(c.topology, noc::TopologyKind::kConcentratedMesh);
  EXPECT_EQ(c.concentration, 2);
  EXPECT_EQ(c.routing, noc::RoutingAlgo::kYX);
  EXPECT_EQ(c.buffer_org, noc::BufferOrg::kShared);
  EXPECT_EQ(c.buffer_depth, s.buffer_depth * ppf);
  EXPECT_EQ(c.packet_length, s.packet_length * ppf);
  EXPECT_EQ(c.shared_reserve, 2 * ppf);
  EXPECT_EQ(c.wakeup_latency, 3u);
  EXPECT_EQ(c.extra_pipeline_stages, 2);
  s.router_stages = 2;
  EXPECT_THROW(noc_config_of(s), std::invalid_argument);
}

// Silicon sampled over noc_config_of covers exactly the ports run_experiment
// measures, with one Vth per gateable buffer — on every fabric.
TEST(NocConfigOf, SampledSiliconCoversEveryMeasuredPort) {
  for (const char* topology : {"mesh", "torus", "ring", "cmesh"}) {
    for (const char* org : {"partitioned", "shared"}) {
      sim::Scenario s = sim::Scenario::synthetic(4, 2, 0.1);
      s.topology = topology;
      s.concentration = s.topology == "cmesh" ? 2 : 1;
      s.buffer_org = org;
      s.warmup_cycles = 100;
      s.measure_cycles = 500;
      const auto vths = sample_network_vths(noc_config_of(s), pv_config_of(s), s.pv_seed());
      const RunResult r = run_experiment(s, PolicyKind::kBaseline, Workload::synthetic());
      ASSERT_EQ(vths.size(), r.ports.size()) << topology << "/" << org;
      for (const auto& [key, port] : r.ports) {
        ASSERT_TRUE(vths.count(key)) << topology << "/" << org;
        EXPECT_EQ(vths.at(key).size(), port.initial_vth_v.size()) << topology << "/" << org;
      }
    }
  }
}

TEST(CalibratedModel, AnchorsAtScenarioOperatingPoint) {
  const sim::Scenario s = small_scenario();
  const nbti::NbtiModel m = calibrated_model_of(s);
  const double ten_years = 10 * 365.25 * 24 * 3600;
  EXPECT_NEAR(m.delta_vth(1.0, ten_years, operating_point_of(s)), 0.050, 1e-9);
}

}  // namespace
}  // namespace nbtinoc::core
