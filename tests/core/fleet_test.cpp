#include "nbtinoc/core/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nbtinoc/sim/snapshot.hpp"

#ifndef NBTINOC_TEST_DATA_DIR
#error "NBTINOC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace nbtinoc::core {
namespace {

FleetSpec small_spec() {
  FleetSpec spec;
  spec.scenario = sim::Scenario::synthetic(2, 2, 0.2);
  spec.scenario.warmup_cycles = 300;
  spec.scenario.measure_cycles = 2'000;
  // rr-no-sensor reads no sensor: its cell shares one simulation per shard.
  spec.policies = {PolicyKind::kBaseline, PolicyKind::kSensorWise, PolicyKind::kRrNoSensor};
  spec.workloads = {{"uniform", Workload::synthetic()}};
  spec.chips = 3;
  return spec;
}

TEST(Fleet, ValidatesSpec) {
  FleetSpec bad = small_spec();
  bad.chips = 0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.policies.clear();
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.failure_fraction = 0.0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.failure_fraction = 1.5;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.dvth_budget_v = 0.0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.workloads[0].label = "has,comma";
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  // Non-finite settings (all reachable from fleet_runner flags).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double value : {nan, inf}) {
    bad = small_spec();
    bad.dvth_budget_v = value;
    EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
    bad = small_spec();
    bad.max_years = value;
    EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  }
  bad = small_spec();
  bad.failure_fraction = nan;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  EXPECT_THROW(run_fleet_shard(small_spec(), 2, 2, 1), std::invalid_argument);
  EXPECT_THROW(run_fleet_shard(small_spec(), -1, 2, 1), std::invalid_argument);
}

TEST(Fleet, ChipSeedsAreDistinctAndStable) {
  const auto spec = small_spec();
  EXPECT_EQ(fleet_chip_seed(spec.scenario, 0), fleet_chip_seed(spec.scenario, 0));
  EXPECT_NE(fleet_chip_seed(spec.scenario, 0), fleet_chip_seed(spec.scenario, 1));
  EXPECT_NE(fleet_chip_seed(spec.scenario, 1), fleet_chip_seed(spec.scenario, 2));
}

TEST(Fleet, ReportIsByteIdenticalAcrossWorkerCounts) {
  const auto spec = small_spec();
  const FleetReport serial = run_fleet(spec, 1);
  const FleetReport threaded = run_fleet(spec, 3);
  EXPECT_EQ(serial.to_json(), threaded.to_json());
  EXPECT_EQ(serial.to_csv(), threaded.to_csv());
}

TEST(Fleet, ShardSplitsMergeByteIdentically) {
  const auto spec = small_spec();
  const FleetReport whole = run_fleet(spec, 2);

  // 5 shards > 3 chips: some shards hold one chip of a cell, or none.
  for (int shard_count : {2, 3, 5}) {
    std::vector<FleetShardResult> shards;
    for (int i = 0; i < shard_count; ++i)
      shards.push_back(run_fleet_shard(spec, i, shard_count, 2));
    const FleetReport merged = merge_fleet_shards(spec, std::move(shards));
    EXPECT_EQ(whole.to_json(), merged.to_json()) << shard_count << "-way split";
    EXPECT_EQ(whole.to_csv(), merged.to_csv()) << shard_count << "-way split";
  }
}

TEST(Fleet, PartialsRoundTripExactly) {
  const auto spec = small_spec();
  const FleetShardResult shard = run_fleet_shard(spec, 1, 2, 1);
  const FleetShardResult parsed = parse_fleet_shard(serialize_fleet_shard(shard));
  EXPECT_EQ(parsed.digest, shard.digest);
  EXPECT_EQ(parsed.total_points, shard.total_points);
  EXPECT_EQ(parsed.shard_index, shard.shard_index);
  EXPECT_EQ(parsed.shard_count, shard.shard_count);
  ASSERT_EQ(parsed.outcomes.size(), shard.outcomes.size());
  for (std::size_t i = 0; i < shard.outcomes.size(); ++i) {
    EXPECT_EQ(parsed.outcomes[i].index, shard.outcomes[i].index);
    EXPECT_EQ(parsed.outcomes[i].chip, shard.outcomes[i].chip);
    EXPECT_EQ(parsed.outcomes[i].policy_index, shard.outcomes[i].policy_index);
    EXPECT_EQ(parsed.outcomes[i].workload_index, shard.outcomes[i].workload_index);
    // Bit-exact, not approximately-equal: the whole point of hex patterns.
    EXPECT_EQ(parsed.outcomes[i].failure_years, shard.outcomes[i].failure_years);
    EXPECT_EQ(parsed.outcomes[i].worst_duty_percent, shard.outcomes[i].worst_duty_percent);
  }
  // Serialize(parse(x)) == x closes the loop.
  EXPECT_EQ(serialize_fleet_shard(parsed), serialize_fleet_shard(shard));
}

TEST(Fleet, ParserRejectsMalformedPartials) {
  // A partial is a snapshot frame: every defect is a SnapshotError whose
  // message names it.
  const auto expect_rejected = [](const std::string& bytes, const char* what, const char* why) {
    try {
      parse_fleet_shard(bytes);
      ADD_FAILURE() << why << ": accepted";
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << why << ": " << e.what();
    }
  };
  const auto spec = small_spec();
  const std::string good = serialize_fleet_shard(run_fleet_shard(spec, 0, 2, 1));
  ASSERT_EQ(good.substr(0, 8), "NBTISNAP");
  expect_rejected("", "not a snapshot file", "empty");
  expect_rejected("not a shard\n", "not a snapshot file", "foreign");
  expect_rejected("NBTIFLEET v1\ndigest x\n", "not a snapshot file", "old text partial");
  // Truncation is detected inside the frame and inside the outcomes.
  expect_rejected(good.substr(0, 14), "truncated", "truncated frame");
  expect_rejected(good.substr(0, good.size() - 4), "truncated", "truncated outcome");
  // The u32 version follows the 8-byte magic.
  std::string other_version = good;
  other_version[8] = 2;
  expect_rejected(other_version, "version mismatch", "bad version");
  expect_rejected(good + "x", "trailing byte", "trailing byte");
}

TEST(Fleet, MergeRejectsForeignIncompleteAndOverlappingShards) {
  const auto spec = small_spec();
  FleetShardResult shard0 = run_fleet_shard(spec, 0, 2, 1);
  const FleetShardResult shard1 = run_fleet_shard(spec, 1, 2, 1);

  // Wrong configuration: digest mismatch, whichever knob differs.
  const auto expect_foreign = [&](const FleetSpec& other, const char* what) {
    try {
      merge_fleet_shards(other, {shard0, shard1});
      ADD_FAILURE() << what << ": digest mismatch not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("different fleet configuration"), std::string::npos)
          << what;
    }
  };
  FleetSpec other = spec;
  other.dvth_budget_v = 0.05;
  expect_foreign(other, "budget");
  // Digest doubles round-trip: six decimals used to hide these two.
  other = spec;
  other.dvth_budget_v = 0.0300000004;
  expect_foreign(other, "budget beyond six decimals");
  other = spec;
  other.max_years = 30.0000001;
  expect_foreign(other, "horizon beyond six decimals");
  other = spec;
  other.scenario.routing = "yx";
  expect_foreign(other, "routing");
  other = spec;
  other.scenario.buffer_depth = 8;
  expect_foreign(other, "buffer depth");
  other = spec;
  other.scenario.tech.temperature_k = 380.0;
  expect_foreign(other, "temperature");
  other = spec;
  other.workloads[0].workload = Workload::synthetic(traffic::PatternKind::kTranspose);
  expect_foreign(other, "workload pattern under the same label");
  other = spec;
  other.runner.policy.sensor.noise_sigma_v = 1e-3;
  expect_foreign(other, "sensor noise");
  other = spec;
  other.runner.faults = sim::FaultPlan::uniform(0.01);
  expect_foreign(other, "fault rates");

  // Missing shard: coverage gap.
  EXPECT_THROW(merge_fleet_shards(spec, {shard0}), std::runtime_error);
  // Same shard twice: duplicate points.
  EXPECT_THROW(merge_fleet_shards(spec, {shard0, shard0}), std::runtime_error);
  // Stray index beyond the spec's point count.
  FleetShardResult stray = shard0;
  stray.outcomes[0].index = spec.total_points() + 7;
  EXPECT_THROW(merge_fleet_shards(spec, {stray, shard1}), std::runtime_error);
}

// The fleet's sharing rule, tied to behaviour: a policy's run is the same on
// every chip's silicon exactly when it reads no sensor, with and without
// control-path faults. The compared view drops what only echoes the silicon
// (initial_vth_v, the sensors' most-degraded report) and adds the gate
// transitions, which to_json omits.
TEST(Fleet, SensorLessDutyIsChipIndependent) {
  const auto chip_free_view = [](RunResult r) {
    std::string transitions;
    for (auto& [key, port] : r.ports) {
      port.initial_vth_v.clear();
      port.most_degraded = 0;
      for (const std::uint64_t t : port.gate_transitions) transitions += ' ' + std::to_string(t);
    }
    return to_json(r) + transitions;
  };
  for (const PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kRrNoSensor, PolicyKind::kSensorWiseNoTraffic,
        PolicyKind::kSensorWise, PolicyKind::kSensorRank, PolicyKind::kSensorWiseSlotMd,
        PolicyKind::kRrSlot}) {
    const bool slot = kind == PolicyKind::kSensorWiseSlotMd || kind == PolicyKind::kRrSlot;
    for (const std::string org : {"partitioned", "shared"}) {
      // VC policies gate partitioned banks, slot policies shared pools;
      // baseline runs on both.
      if (kind != PolicyKind::kBaseline && slot != (org == "shared")) continue;
      sim::Scenario s = sim::Scenario::synthetic(2, 4, 0.2);
      s.buffer_org = org;
      s.warmup_cycles = 300;
      s.measure_cycles = 2'000;
      for (const bool faulty : {false, true}) {
        RunnerOptions options;
        if (faulty) options.faults = sim::FaultPlan::uniform(0.02);
        std::vector<std::string> views;
        for (int chip = 0; chip < 3; ++chip) {
          options.initial_vths = sample_network_vths(noc_config_of(s), pv_config_of(s),
                                                     fleet_chip_seed(s, chip));
          views.push_back(chip_free_view(run_experiment(s, kind, Workload::synthetic(), options)));
        }
        const bool identical = views[0] == views[1] && views[0] == views[2];
        EXPECT_EQ(identical, !reads_sensors(kind))
            << to_string(kind) << " on " << org << (faulty ? " with faults" : "");
      }
    }
  }
}

TEST(Fleet, GroupStatisticsAreOrderedAndBounded) {
  auto spec = small_spec();
  spec.chips = 4;
  const FleetReport report = run_fleet(spec, 2);
  ASSERT_EQ(report.groups().size(), 3u);  // 3 policies x 1 workload
  for (const auto& g : report.groups()) {
    ASSERT_EQ(g.failure_years.size(), 4u);
    EXPECT_LE(g.min_years, g.p10_years);
    EXPECT_LE(g.p10_years, g.median_years);
    EXPECT_LE(g.median_years, g.p90_years);
    EXPECT_LE(g.p90_years, g.max_years);
    EXPECT_GE(g.mean_years, g.min_years);
    EXPECT_LE(g.mean_years, g.max_years);
    for (double y : g.failure_years) {
      EXPECT_GT(y, 0.0);
      EXPECT_LE(y, spec.max_years);
    }
  }
  // Sensor-wise wear leveling must not shorten fleet lifetime vs baseline.
  EXPECT_GE(report.groups()[1].median_years, report.groups()[0].median_years);
}

// Pins the fleet's output bytes for small_spec(). Regenerate after an
// intentional change with
//   NBTINOC_UPDATE_GOLDEN=1 ./build/tests/nbtinoc_tests --gtest_filter='Golden*'
// then review the diff of tests/integration/golden/fleet_small.{json,csv}.
TEST(Golden, FleetReportMatchesCheckedInGolden) {
  const FleetReport report = run_fleet(small_spec(), 2);
  const bool update = std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr;
  const std::string stem = NBTINOC_TEST_DATA_DIR "/integration/golden/fleet_small";
  for (const auto& [path, actual] : {std::pair{stem + ".json", report.to_json()},
                                     std::pair{stem + ".csv", report.to_csv()}}) {
    if (update) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out << actual) << "cannot write " << path;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with NBTINOC_UPDATE_GOLDEN=1";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str()) << "fleet output drifted from " << path;
  }
  if (update) GTEST_SKIP() << "fleet golden files regenerated at " << stem << ".{json,csv}";
}

// Per-chip silicon is sampled over noc_config_of, so fleets run on every
// fabric run_experiment accepts, not just the partitioned mesh.
TEST(Fleet, RunsEveryTopologyAndBufferOrg) {
  struct Fabric {
    const char* topology;
    const char* buffer_org;
    PolicyKind policy;
  };
  for (const Fabric& f : {Fabric{"torus", "partitioned", PolicyKind::kSensorWise},
                          Fabric{"cmesh", "partitioned", PolicyKind::kSensorWise},
                          Fabric{"mesh", "shared", PolicyKind::kSensorWiseSlotMd}}) {
    FleetSpec spec = small_spec();
    spec.scenario = sim::Scenario::synthetic(4, 4, 0.1);
    spec.scenario.topology = f.topology;
    spec.scenario.concentration = spec.scenario.topology == "cmesh" ? 2 : 1;
    spec.scenario.buffer_org = f.buffer_org;
    spec.scenario.warmup_cycles = 200;
    spec.scenario.measure_cycles = 1'000;
    spec.policies = {f.policy};
    spec.chips = 1;
    const FleetReport report = run_fleet(spec, 1);
    ASSERT_EQ(report.groups().size(), 1u) << f.topology << "/" << f.buffer_org;
    EXPECT_GT(report.groups()[0].failure_years.at(0), 0.0);
  }
}

}  // namespace
}  // namespace nbtinoc::core
