#include "nbtinoc/core/fleet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nbtinoc::core {
namespace {

FleetSpec small_spec() {
  FleetSpec spec;
  spec.scenario = sim::Scenario::synthetic(2, 2, 0.2);
  spec.scenario.warmup_cycles = 300;
  spec.scenario.measure_cycles = 2'000;
  spec.policies = {PolicyKind::kBaseline, PolicyKind::kSensorWise};
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

  for (int shard_count : {2, 3}) {
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
  EXPECT_THROW(parse_fleet_shard(""), std::runtime_error);
  EXPECT_THROW(parse_fleet_shard("not a shard\n"), std::runtime_error);
  const auto spec = small_spec();
  const std::string good = serialize_fleet_shard(run_fleet_shard(spec, 0, 2, 1));
  // Truncation (drop the END line) is detected.
  EXPECT_THROW(parse_fleet_shard(good.substr(0, good.size() - 4)), std::runtime_error);
  // A corrupted outcome line names itself in the error.
  std::string corrupt = good;
  corrupt.replace(corrupt.find("\nO "), 3, "\nX ");
  EXPECT_THROW(parse_fleet_shard(corrupt), std::runtime_error);
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

TEST(Fleet, GroupStatisticsAreOrderedAndBounded) {
  auto spec = small_spec();
  spec.chips = 4;
  const FleetReport report = run_fleet(spec, 2);
  ASSERT_EQ(report.groups().size(), 2u);  // 2 policies x 1 workload
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
