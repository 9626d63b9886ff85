#include "nbtinoc/core/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "digest.hpp"
#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/util/json.hpp"
#include "nbtinoc/util/rng.hpp"
#include "nbtinoc/util/strings.hpp"
#include "nbtinoc/util/table.hpp"

namespace nbtinoc::core {

namespace {

std::string hex_bits(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

double bits_hex(const std::string& field, const std::string& line) {
  std::size_t used = 0;
  std::uint64_t bits = 0;
  try {
    bits = std::stoull(field, &used, 16);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != field.size() || field.empty())
    throw std::runtime_error("fleet shard: bad f64 bit pattern \"" + field + "\" in line: " + line);
  return std::bit_cast<double>(bits);
}

std::size_t parse_size(const std::string& field, const std::string& line) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(field, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != field.size() || field.empty())
    throw std::runtime_error("fleet shard: bad integer \"" + field + "\" in line: " + line);
  return static_cast<std::size_t>(v);
}

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
  std::string out = "NBTIFLEET v1\n";
  out += "digest " + shard.digest + "\n";
  out += "points " + std::to_string(shard.total_points) + " shard " +
         std::to_string(shard.shard_index) + "/" + std::to_string(shard.shard_count) +
         " outcomes " + std::to_string(shard.outcomes.size()) + "\n";
  for (const FleetPointOutcome& o : shard.outcomes) {
    out += "O " + std::to_string(o.index) + " " + std::to_string(o.chip) + " " +
           std::to_string(o.policy_index) + " " + std::to_string(o.workload_index) + " " +
           hex_bits(o.failure_years) + " " + hex_bits(o.worst_duty_percent) + "\n";
  }
  out += "END\n";
  return out;
}

FleetShardResult parse_fleet_shard(const std::string& text) {
  const std::vector<std::string> lines = util::split(text, '\n');
  if (lines.empty() || lines[0] != "NBTIFLEET v1")
    throw std::runtime_error(
        "fleet shard: missing \"NBTIFLEET v1\" header (is this a shard partial file?)");
  if (lines.size() < 3 || !util::starts_with(lines[1], "digest "))
    throw std::runtime_error("fleet shard: missing digest line");

  FleetShardResult shard;
  shard.digest = lines[1].substr(7);

  const std::vector<std::string> meta = util::split(lines[2], ' ');
  if (meta.size() != 6 || meta[0] != "points" || meta[2] != "shard" || meta[4] != "outcomes")
    throw std::runtime_error("fleet shard: malformed meta line: " + lines[2]);
  shard.total_points = parse_size(meta[1], lines[2]);
  const std::vector<std::string> split_shard = util::split(meta[3], '/');
  if (split_shard.size() != 2)
    throw std::runtime_error("fleet shard: malformed shard i/N field: " + lines[2]);
  shard.shard_index = static_cast<int>(parse_size(split_shard[0], lines[2]));
  shard.shard_count = static_cast<int>(parse_size(split_shard[1], lines[2]));
  const std::size_t expected = parse_size(meta[5], lines[2]);

  bool terminated = false;
  for (std::size_t i = 3; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (lines[i] == "END") {
      terminated = true;
      continue;
    }
    if (terminated) throw std::runtime_error("fleet shard: content after END: " + lines[i]);
    const std::vector<std::string> f = util::split(lines[i], ' ');
    if (f.size() != 7 || f[0] != "O")
      throw std::runtime_error("fleet shard: malformed outcome line: " + lines[i]);
    FleetPointOutcome o;
    o.index = parse_size(f[1], lines[i]);
    o.chip = static_cast<int>(parse_size(f[2], lines[i]));
    o.policy_index = parse_size(f[3], lines[i]);
    o.workload_index = parse_size(f[4], lines[i]);
    o.failure_years = bits_hex(f[5], lines[i]);
    o.worst_duty_percent = bits_hex(f[6], lines[i]);
    shard.outcomes.push_back(o);
  }
  if (!terminated)
    throw std::runtime_error("fleet shard: truncated partial (no END line) — the producing "
                             "shard run did not finish");
  if (shard.outcomes.size() != expected)
    throw std::runtime_error("fleet shard: outcome count " + std::to_string(shard.outcomes.size()) +
                             " does not match the declared " + std::to_string(expected));
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
  std::string out = "policy,workload,chips,mean_years,min_years,p10_years,median_years,"
                    "p90_years,max_years\n";
  for (const FleetGroupReport& g : groups_) {
    out += std::string(to_string(spec_.policies[g.policy_index])) + ',' +
           spec_.workloads[g.workload_index].label + ',' +
           std::to_string(g.failure_years.size()) + ',' + util::format_double(g.mean_years, 4) +
           ',' + util::format_double(g.min_years, 4) + ',' + util::format_double(g.p10_years, 4) +
           ',' + util::format_double(g.median_years, 4) + ',' +
           util::format_double(g.p90_years, 4) + ',' + util::format_double(g.max_years, 4) + '\n';
  }
  return out;
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
