#include "nbtinoc/core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "digest.hpp"
#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/json.hpp"
#include "nbtinoc/util/rng.hpp"
#include "nbtinoc/util/table.hpp"

namespace nbtinoc::core {

namespace {

/// Nearest-rank percentile on an ascending vector: element at index
/// floor(q * n), clamped — q = 0 gives the min, q -> 1 the max.
double percentile(const std::vector<double>& ascending, double q) {
  const std::size_t n = ascending.size();
  const auto at = static_cast<std::size_t>(q * static_cast<double>(n));
  return ascending[std::min(at, n - 1)];
}

}  // namespace

void FleetSpec::validate() const {
  if (chips < 1) throw std::invalid_argument("FleetSpec: chips < 1");
  if (policies.empty()) throw std::invalid_argument("FleetSpec: no policies");
  if (workloads.empty()) throw std::invalid_argument("FleetSpec: no workloads");
  // Written so that NaN fails every range check.
  if (!std::isfinite(dvth_budget_v) || dvth_budget_v <= 0.0)
    throw std::invalid_argument("FleetSpec: dvth_budget_v must be finite and > 0");
  if (!(failure_fraction > 0.0 && failure_fraction <= 1.0))
    throw std::invalid_argument("FleetSpec: failure_fraction must be in (0, 1]");
  if (!std::isfinite(max_years) || max_years <= 0.0)
    throw std::invalid_argument("FleetSpec: max_years must be finite and > 0");
  for (const auto& w : workloads)
    if (w.label.empty() || w.label.find(',') != std::string::npos)
      throw std::invalid_argument("FleetSpec: workload labels must be non-empty and comma-free");
}

std::uint64_t fleet_chip_seed(const sim::Scenario& scenario, int chip) {
  util::SplitMix64 stream(scenario.pv_seed());
  std::uint64_t seed = 0;
  for (int i = 0; i <= chip; ++i) seed = stream.next();
  return seed;
}

std::string fleet_digest(const FleetSpec& spec) {
  std::string d = "fleet chips=" + std::to_string(spec.chips);
  d += " budget=" + digest_doubles({spec.dvth_budget_v});
  d += " fraction=" + digest_doubles({spec.failure_fraction});
  d += " max_years=" + digest_doubles({spec.max_years});
  // One cell per (policy, workload) group, in point-enumeration order. The
  // per-chip silicon derives from the scenario alone, so the cell digest
  // over spec.runner pins everything a chip's run depends on.
  for (const PolicyKind policy : spec.policies)
    for (const LabeledWorkload& w : spec.workloads)
      d += " | " + w.label + ": " + config_digest(spec.scenario, policy, w.workload, spec.runner);
  return d;
}

FleetShardResult run_fleet_shard(const FleetSpec& spec, int shard_index, int shard_count,
                                 unsigned workers) {
  spec.validate();
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("run_fleet_shard: need 0 <= shard_index < shard_count, got " +
                                std::to_string(shard_index) + "/" + std::to_string(shard_count));

  const std::size_t total = spec.total_points();
  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  const std::size_t workload_count = spec.workloads.size();

  FleetShardResult shard;
  shard.digest = fleet_digest(spec);
  shard.total_points = total;
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  for (std::size_t index = static_cast<std::size_t>(shard_index); index < total;
       index += static_cast<std::size_t>(shard_count)) {
    FleetPointOutcome outcome;
    outcome.index = index;
    outcome.chip = static_cast<int>(index % chips);
    outcome.workload_index = (index / chips) % workload_count;
    outcome.policy_index = index / chips / workload_count;
    shard.outcomes.push_back(outcome);
  }

  const noc::NocConfig net_config = noc_config_of(spec.scenario);
  const nbti::PvConfig pv = pv_config_of(spec.scenario);
  const auto silicon_of = [&](int chip) {
    return sample_network_vths(net_config, pv, fleet_chip_seed(spec.scenario, chip));
  };

  // One simulation per sensor point. A cell whose policy reads no sensor
  // has the same duty on every chip's silicon, so it runs once per shard,
  // on its first chip here, keyed by the cell's chip-0 index.
  SweepOptions sweep_options;
  sweep_options.workers = workers;
  SweepRunner sweep(sweep_options);
  std::map<std::size_t, std::size_t> run_of_key;  // run key -> sweep index
  std::vector<std::size_t> run_of_outcome;
  for (const FleetPointOutcome& o : shard.outcomes) {
    const PolicyKind policy = spec.policies[o.policy_index];
    const std::size_t key =
        reads_sensors(policy) ? o.index : o.index - static_cast<std::size_t>(o.chip);
    const auto [it, fresh] = run_of_key.try_emplace(key, sweep.size());
    run_of_outcome.push_back(it->second);
    if (!fresh) continue;
    SweepPoint point;
    point.scenario = spec.scenario;
    point.policy = policy;
    point.workload = spec.workloads[o.workload_index].workload;
    point.label = "chip" + std::to_string(o.chip);
    point.runner = spec.runner;
    point.runner->initial_vths = silicon_of(o.chip);
    sweep.add(std::move(point));
  }
  const SweepResult runs = sweep.run();

  // Reduce every point to its chip's failure time, on the same pool: each
  // VC's lifetime from the closed-form model at the run's duty and the
  // chip's own silicon, then the failure_fraction order statistic. Tasks
  // only read the shared runs and write their own outcome.
  const nbti::NbtiModel model = calibrated_model_of(spec.scenario, spec.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(spec.scenario));
  parallel_for(shard.outcomes.size(), workers, [&](std::size_t i) {
    FleetPointOutcome& outcome = shard.outcomes[i];
    const RunResult& run = runs[run_of_outcome[i]].result;
    const auto silicon = silicon_of(outcome.chip);
    std::vector<double> lifetimes;
    double worst_duty = 0.0;
    for (const auto& [key, port] : run.ports) {
      const std::vector<double>& vths = silicon.at(key);
      for (std::size_t v = 0; v < port.duty_percent.size(); ++v) {
        nbti::BufferAgingInput input;
        input.initial_vth_v = vths[v];
        input.alpha = port.duty_percent[v] / 100.0;
        lifetimes.push_back(
            forecaster.lifetime_years(input, spec.dvth_budget_v, spec.max_years));
        worst_duty = std::max(worst_duty, port.duty_percent[v]);
      }
    }
    std::sort(lifetimes.begin(), lifetimes.end());
    const auto over = static_cast<std::size_t>(
        std::ceil(spec.failure_fraction * static_cast<double>(lifetimes.size())));
    const std::size_t kth = std::max<std::size_t>(over, 1) - 1;
    outcome.failure_years = lifetimes[kth];
    outcome.worst_duty_percent = worst_duty;
  });
  return shard;
}

std::string serialize_fleet_shard(const FleetShardResult& shard) {
  sim::SnapshotWriter w;
  w.u64(shard.total_points);
  w.u64(static_cast<std::uint64_t>(shard.shard_index));
  w.u64(static_cast<std::uint64_t>(shard.shard_count));
  w.u64(shard.outcomes.size());
  for (const FleetPointOutcome& o : shard.outcomes) {
    w.u64(o.index);
    w.u64(static_cast<std::uint64_t>(o.chip));
    w.u64(o.policy_index);
    w.u64(o.workload_index);
    w.f64(o.failure_years);
    w.f64(o.worst_duty_percent);
  }
  return sim::frame_snapshot(shard.digest, w.data());
}

FleetShardResult parse_fleet_shard(const std::string& bytes) {
  // The frame carries the digest the merge checks against its own spec.
  FleetShardResult shard;
  shard.digest = sim::snapshot_digest(bytes);
  sim::SnapshotReader r = sim::open_snapshot(bytes, shard.digest);
  shard.total_points = r.u64();
  shard.shard_index = static_cast<int>(r.u64());
  shard.shard_count = static_cast<int>(r.u64());
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    FleetPointOutcome o;
    o.index = r.u64();
    o.chip = static_cast<int>(r.u64());
    o.policy_index = r.u64();
    o.workload_index = r.u64();
    o.failure_years = r.f64();
    o.worst_duty_percent = r.f64();
    shard.outcomes.push_back(o);
  }
  r.expect_end();
  return shard;
}

FleetReport::FleetReport(const FleetSpec& spec, std::vector<FleetGroupReport> groups)
    : spec_(spec), groups_(std::move(groups)) {}

std::string FleetReport::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("fleet").begin_object();
  w.field("scenario", spec_.scenario.name)
      .field("chips", spec_.chips)
      .field("dvth_budget_v", spec_.dvth_budget_v)
      .field("failure_fraction", spec_.failure_fraction)
      .field("max_years", spec_.max_years);
  w.end_object();
  w.key("groups").begin_array();
  for (const FleetGroupReport& g : groups_) {
    w.begin_object();
    w.field("policy", to_string(spec_.policies[g.policy_index]));
    w.field("workload", spec_.workloads[g.workload_index].label);
    w.field("mean_years", g.mean_years)
        .field("min_years", g.min_years)
        .field("p10_years", g.p10_years)
        .field("median_years", g.median_years)
        .field("p90_years", g.p90_years)
        .field("max_years", g.max_years);
    w.key("failure_years").begin_array();
    for (double y : g.failure_years) w.value(y);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string FleetReport::to_csv() const {
  util::Table table({"policy", "workload", "chips", "mean_years", "min_years", "p10_years",
                     "median_years", "p90_years", "max_years"});
  for (const FleetGroupReport& g : groups_)
    table.add_row({to_string(spec_.policies[g.policy_index]),
                   spec_.workloads[g.workload_index].label, std::to_string(g.failure_years.size()),
                   util::format_double(g.mean_years, 4), util::format_double(g.min_years, 4),
                   util::format_double(g.p10_years, 4), util::format_double(g.median_years, 4),
                   util::format_double(g.p90_years, 4), util::format_double(g.max_years, 4)});
  return table.to_csv();
}

FleetReport merge_fleet_shards(const FleetSpec& spec, std::vector<FleetShardResult> shards) {
  spec.validate();
  const std::string digest = fleet_digest(spec);
  const std::size_t total = spec.total_points();

  std::vector<const FleetPointOutcome*> by_index(total, nullptr);
  for (const FleetShardResult& shard : shards) {
    if (shard.digest != digest)
      throw std::runtime_error(
          "fleet merge: shard was produced under a different fleet configuration.\n  shard "
          "digest:    " +
          shard.digest + "\n  expected digest: " + digest);
    if (shard.total_points != total)
      throw std::runtime_error("fleet merge: shard declares " +
                               std::to_string(shard.total_points) + " total points, spec has " +
                               std::to_string(total));
    for (const FleetPointOutcome& o : shard.outcomes) {
      if (o.index >= total)
        throw std::runtime_error("fleet merge: stray outcome index " + std::to_string(o.index));
      if (by_index[o.index] != nullptr)
        throw std::runtime_error("fleet merge: point " + std::to_string(o.index) +
                                 " appears in more than one shard (overlapping splits?)");
      by_index[o.index] = &o;
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (by_index[i] == nullptr)
      throw std::runtime_error(
          "fleet merge: point " + std::to_string(i) +
          " is missing — pass every shard partial of a complete i/N split");
  }

  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  std::vector<FleetGroupReport> groups;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    for (std::size_t wl = 0; wl < spec.workloads.size(); ++wl) {
      FleetGroupReport g;
      g.policy_index = p;
      g.workload_index = wl;
      for (std::size_t chip = 0; chip < chips; ++chip) {
        const std::size_t index = (p * spec.workloads.size() + wl) * chips + chip;
        g.failure_years.push_back(by_index[index]->failure_years);
      }
      std::sort(g.failure_years.begin(), g.failure_years.end());
      double sum = 0.0;
      for (double y : g.failure_years) sum += y;
      g.mean_years = sum / static_cast<double>(g.failure_years.size());
      g.min_years = g.failure_years.front();
      g.max_years = g.failure_years.back();
      g.p10_years = percentile(g.failure_years, 0.10);
      g.median_years = percentile(g.failure_years, 0.50);
      g.p90_years = percentile(g.failure_years, 0.90);
      groups.push_back(std::move(g));
    }
  }
  return FleetReport(spec, std::move(groups));
}

FleetReport run_fleet(const FleetSpec& spec, unsigned workers) {
  std::vector<FleetShardResult> shards;
  shards.push_back(run_fleet_shard(spec, 0, 1, workers));
  return merge_fleet_shards(spec, std::move(shards));
}

}  // namespace nbtinoc::core
