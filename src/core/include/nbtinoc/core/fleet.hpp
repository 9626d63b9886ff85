#pragma once
// Sharded Monte-Carlo fleet reliability: thousands of process-variation
// chip instances × policies × workloads, reduced to time-to-failure
// distributions per policy.
//
// Each fleet point is one chip (an independent PV silicon sample) running
// one policy under one workload: a cycle-accurate run_experiment measures
// every buffer's duty cycle, then the closed-form reaction–diffusion model
// read backwards in t (AgingForecaster::lifetime_years, one
// NbtiModel::seconds_to_shift call per VC) converts {the chip's initial
// Vth, duty} into the years until that buffer's ΔVth crosses the budget,
// capped at max_years. The chip's
// failure time is the order statistic at `failure_fraction` of its VC
// population — the paper-level question "when has 1% of this chip's VC
// buffers drifted out of spec?".
//
// A sensor policy runs once per chip. A policy that reads no sensor
// (reads_sensors) has the same duty on every chip's silicon, so its
// (policy, workload) cell runs once per shard, on its first chip there,
// and every chip of the cell is reduced from that one run against its own
// silicon — exactly what per-chip runs would give.
//
// Determinism contract (pinned by fleet_test): every point's seeds derive
// from {scenario, chip index} alone, runs execute through SweepRunner, and
// each point reduces into its own slot — so the merged JSON/CSV is
// byte-identical for any --workers value and any shard split. Shard
// partials are snapshot frames (sim/snapshot.hpp) keyed by fleet_digest
// and carry failure times as exact IEEE bit patterns, so a merge loses
// nothing to decimal round-tripping.

#include <cstdint>
#include <string>
#include <vector>

#include "nbtinoc/core/experiment.hpp"

namespace nbtinoc::core {

struct LabeledWorkload {
  std::string label;
  Workload workload;
};

struct FleetSpec {
  sim::Scenario scenario;
  std::vector<PolicyKind> policies{PolicyKind::kBaseline, PolicyKind::kSensorWise};
  std::vector<LabeledWorkload> workloads{{"uniform", {}}};
  int chips = 64;                 ///< PV instances per (policy, workload) group
  double dvth_budget_v = 0.03;    ///< per-buffer ΔVth failure budget
  double failure_fraction = 0.01; ///< chip fails when this fraction of VCs is over budget
  double max_years = 30.0;        ///< forecast horizon (chips surviving it report it)
  RunnerOptions runner;

  /// Point-enumeration order: policy-major, then workload, then chip.
  std::size_t total_points() const {
    return policies.size() * workloads.size() * static_cast<std::size_t>(chips);
  }

  void validate() const;
};

/// PV seed of one chip instance: a SplitMix64 stream over the scenario's
/// pv_seed, one draw per chip — independent silicon per chip, identical
/// silicon for the same chip index in every shard/worker layout.
std::uint64_t fleet_chip_seed(const sim::Scenario& scenario, int chip);

/// One completed fleet point.
struct FleetPointOutcome {
  std::size_t index = 0;       ///< global enumeration index
  int chip = 0;
  std::size_t policy_index = 0;
  std::size_t workload_index = 0;
  double failure_years = 0.0;  ///< time to failure_fraction of VCs over budget
  double worst_duty_percent = 0.0;  ///< highest VC duty measured on this chip
};

/// The outcomes of one shard (point indices with index % shard_count ==
/// shard_index), plus the spec digest they were computed under.
struct FleetShardResult {
  std::string digest;
  std::size_t total_points = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::vector<FleetPointOutcome> outcomes;  ///< ascending global index
};

/// Canonical textual encoding of everything that determines fleet results
/// (one line): chips, then budget, failure fraction and horizon as exact
/// round-trip doubles, then the config_digest of every (policy, workload)
/// cell. The config digest of shard partials' snapshot frames, checked at
/// merge.
std::string fleet_digest(const FleetSpec& spec);

/// Runs one shard of the fleet: its simulations through SweepRunner, then
/// the per-point reduce on the same pool (workers as given; 0 = hardware
/// concurrency). shard_index/shard_count = 0/1 runs everything.
FleetShardResult run_fleet_shard(const FleetSpec& spec, int shard_index, int shard_count,
                                 unsigned workers);

/// Shard partial: sim::frame_snapshot(shard.digest, payload), the payload
/// being total points, shard i and N, the outcome count and each outcome's
/// fields as u64s and IEEE bit patterns.
std::string serialize_fleet_shard(const FleetShardResult& shard);
/// Parses a partial. A foreign, truncated, other-version or over-long file
/// throws sim::SnapshotError (a std::runtime_error) naming the problem.
FleetShardResult parse_fleet_shard(const std::string& bytes);

/// Per-(policy, workload) failure-time distribution.
struct FleetGroupReport {
  std::size_t policy_index = 0;
  std::size_t workload_index = 0;
  std::vector<double> failure_years;  ///< ascending
  double mean_years = 0.0;
  double min_years = 0.0;
  double p10_years = 0.0;
  double median_years = 0.0;
  double p90_years = 0.0;
  double max_years = 0.0;
};

class FleetReport {
 public:
  FleetReport(const FleetSpec& spec, std::vector<FleetGroupReport> groups);

  const std::vector<FleetGroupReport>& groups() const { return groups_; }
  std::string to_json() const;
  std::string to_csv() const;

 private:
  FleetSpec spec_;
  std::vector<FleetGroupReport> groups_;
};

/// Validates shard partials against the spec (digest match, exact point
/// coverage: every index once, no duplicates, no strays) and reduces them
/// to the per-group report. Order-insensitive in its inputs; the output is
/// a pure function of the spec, so merged shards match a 0/1 run exactly.
FleetReport merge_fleet_shards(const FleetSpec& spec, std::vector<FleetShardResult> shards);

/// Convenience: run everything in-process (equivalent to one 0/1 shard +
/// merge).
FleetReport run_fleet(const FleetSpec& spec, unsigned workers = 0);

}  // namespace nbtinoc::core
