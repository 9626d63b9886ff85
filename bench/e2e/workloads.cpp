// The five workloads, their timed bodies and the checks on their outputs.
// Why each workload exists is in README.md; this file only defines them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "e2e.hpp"
#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/util/json.hpp"

namespace e2e {

namespace {

constexpr unsigned kFleetWorkers = 2;

sim::Cycle scaled(sim::Cycle cycles, const Params& params) {
  return std::max<sim::Cycle>(1, cycles / static_cast<sim::Cycle>(params.scale));
}

noc::NocConfig silicon_config(const sim::Scenario& s) {
  noc::NocConfig config;
  config.width = s.mesh_width;
  config.height = s.mesh_height;
  config.num_vcs = s.num_vcs;
  config.num_vnets = s.num_vnets;
  return config;
}

RunSpec run_spec(const WorkloadInfo& info, const Params& params) {
  const std::string_view name = info.name;
  RunSpec r;
  if (name == "paper-loaded") {
    r.scenario = sim::Scenario::synthetic(4, 4, 0.2);
  } else if (name == "sparse-8x8") {
    r.scenario = sim::Scenario::synthetic(8, 4, 0.005);
  } else if (name == "damq-bursty") {
    r.scenario = sim::Scenario::synthetic(4, 4, 0.2);
    r.scenario.buffer_org = "shared";
    r.scenario.shared_reserve = 1;
    r.policy = core::PolicyKind::kSensorWiseSlotMd;
  } else {
    throw std::logic_error(std::string("run_spec: '") + info.name + "' is not a run workload");
  }
  r.scenario.warmup_cycles = scaled(2'000, params);
  r.scenario.measure_cycles = scaled(20'000, params);
  r.workload = name == "damq-bursty"
                   ? core::Workload::datacenter_aggregate(traffic::DatacenterProfile{}, params.seed)
                   : core::Workload::synthetic(traffic::PatternKind::kUniform);
  r.workload.seed_salt = params.seed;
  return r;
}

struct LifetimeSpec {
  sim::Scenario scenario;
  core::Workload workload;
  noc::PortKey sampled_port;
  core::LifetimeEngineOptions options;
};

LifetimeSpec lifetime_spec(const Params& params) {
  LifetimeSpec l;
  l.scenario = sim::Scenario::synthetic(4, 4, 0.2);
  l.workload = core::Workload::synthetic(traffic::PatternKind::kUniform);
  l.workload.seed_salt = params.seed;
  l.sampled_port = noc::PortKey{0, noc::Dir::East};
  l.options.epochs = 12;
  l.options.years_per_epoch = 0.5;
  l.options.measure_cycles_per_epoch = scaled(4'000, params);
  // A fixed schedule: measure every other epoch. Under the default 2 mV
  // drift tolerance, 24 epochs of 0.25 y measured 16 or 17 windows
  // depending on the seed, which moved wall time by 13% between seeds. A
  // 1 V tolerance is never reached, so the extrapolation cap alone sets the
  // schedule.
  l.options.remeasure_tolerance_v = 1.0;
  l.options.max_extrapolated_epochs = 1;
  return l;
}

core::FleetSpec fleet_spec(const Params& params) {
  core::FleetSpec spec;
  spec.scenario = sim::Scenario::synthetic(4, 4, 0.2);
  spec.scenario.warmup_cycles = scaled(1'000, params);
  spec.scenario.measure_cycles = scaled(4'000, params);
  spec.policies = {core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
                   core::PolicyKind::kSensorWise};
  core::Workload uniform = core::Workload::synthetic(traffic::PatternKind::kUniform);
  uniform.seed_salt = params.seed;
  spec.workloads = {{"uniform", uniform}};
  spec.chips = params.scale == 1 ? 4 : 2;
  spec.dvth_budget_v = 0.03;
  spec.failure_fraction = 0.01;
  return spec;
}

bool finite_in(double v, double lo, double hi) { return std::isfinite(v) && v >= lo && v <= hi; }

std::string lifetime_json(const core::LifetimeEngineResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.field("measured_epochs", r.measured_epochs)
      .field("extrapolated_epochs", r.extrapolated_epochs)
      .field("md_changes", r.study.md_changes)
      .field("final_worst_vth_v", r.study.final_worst_vth_v)
      .field("final_spread_v", r.study.final_spread_v);
  w.key("epochs").begin_array();
  for (const core::LifetimeEpoch& e : r.study.epochs) {
    w.begin_object();
    w.field("years", e.years_elapsed).field("most_degraded", e.most_degraded);
    w.key("vth_v").begin_array();
    for (double v : e.vth_v) w.value(v);
    w.end_array();
    w.key("duty_percent").begin_array();
    for (double d : e.duty_percent) w.value(d);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("final_vths").begin_array();
  for (const auto& [key, bank] : r.study.final_vths)
    for (double v : bank) w.value(v);
  w.end_array();
  w.end_object();
  return w.str();
}

/// Runs the fleet as shards 0/2 and 1/2, round-trips both through the text
/// partial format and merges them.
std::string sharded_fleet_json(const core::FleetSpec& spec, LayerMetrics* layers) {
  auto t0 = Clock::now();
  std::vector<core::FleetShardResult> shards;
  for (int i = 0; i < 2; ++i) shards.push_back(core::run_fleet_shard(spec, i, 2, kFleetWorkers));
  const double shard_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<std::string> partials;
  for (const auto& shard : shards) partials.push_back(core::serialize_fleet_shard(shard));
  const double serialize_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<core::FleetShardResult> parsed;
  for (const auto& text : partials) parsed.push_back(core::parse_fleet_shard(text));
  const double parse_s = seconds_since(t0);

  t0 = Clock::now();
  const std::string json = core::merge_fleet_shards(spec, std::move(parsed)).to_json();
  const double merge_s = seconds_since(t0);

  if (layers != nullptr) {
    const double points = static_cast<double>(spec.total_points());
    (*layers)["core.fleet.shard_s"] = {shard_s, "s"};
    (*layers)["core.fleet.point_s"] = {shard_s * kFleetWorkers / points, "s"};
    (*layers)["core.fleet.serialize_s"] = {serialize_s, "s"};
    (*layers)["core.fleet.parse_s"] = {parse_s, "s"};
    (*layers)["core.fleet.merge_s"] = {merge_s, "s"};
    (*layers)["core.fleet.points"] = {points, "count"};
  }
  return json;
}

void check_run(const RunSpec& spec, const core::RunResult& r, Checks& checks) {
  bool duty_ok = true;
  bool vth_ok = true;
  for (const auto& [key, port] : r.ports) {
    for (double d : port.duty_percent) duty_ok = duty_ok && finite_in(d, 0.0, 100.0);
    for (double v : port.initial_vth_v) vth_ok = vth_ok && finite_in(v, 0.0, 1.0);
  }
  checks.expect(!r.ports.empty() && duty_ok, "duty_in_range", "every VC duty in [0, 100]");
  checks.expect(vth_ok, "initial_vth_finite");
  checks.expect(r.packets_ejected > 0 && std::isfinite(r.avg_packet_latency) &&
                    r.avg_packet_latency > 0.0,
                "latency_finite", "mean latency " + std::to_string(r.avg_packet_latency));

  // Flits (phits) resident in the fabric bound the window's injected/ejected
  // imbalance: every input buffer slot of every port, plus two in flight on
  // each channel feeding a port or an NI (link delay 2).
  const sim::Scenario& s = spec.scenario;
  const double ports = static_cast<double>(s.cores()) * 5.0;
  const double slots_per_port =
      static_cast<double>(s.num_vcs * s.num_vnets * s.buffer_depth * s.phits_per_flit());
  const double capacity = ports * slots_per_port + 2.0 * (ports + s.cores());
  const double imbalance =
      std::abs(static_cast<double>(r.flits_ejected) - static_cast<double>(r.flits_injected));
  checks.expect(imbalance <= capacity, "flit_conservation",
                "|ejected - injected| = " + std::to_string(imbalance) + ", capacity " +
                    std::to_string(capacity));
}

void check_lifetime(const LifetimeSpec& spec, const core::LifetimeEngineResult& r,
                    Checks& checks) {
  const int epochs = spec.options.epochs;
  checks.expect(r.measured_epochs + r.extrapolated_epochs == epochs &&
                    static_cast<int>(r.study.epochs.size()) == epochs,
                "epoch_accounting",
                std::to_string(r.measured_epochs) + " measured + " +
                    std::to_string(r.extrapolated_epochs) + " extrapolated");
  bool ranges = true;
  bool monotone = true;
  for (std::size_t e = 0; e < r.study.epochs.size(); ++e) {
    const core::LifetimeEpoch& epoch = r.study.epochs[e];
    for (double d : epoch.duty_percent) ranges = ranges && finite_in(d, 0.0, 100.0);
    for (std::size_t v = 0; v < epoch.vth_v.size(); ++v) {
      ranges = ranges && finite_in(epoch.vth_v[v], 0.0, 1.0);
      if (e > 0) monotone = monotone && epoch.vth_v[v] >= r.study.epochs[e - 1].vth_v[v];
    }
  }
  for (const auto& [key, bank] : r.study.final_vths)
    for (double v : bank) ranges = ranges && finite_in(v, 0.0, 1.0);
  checks.expect(ranges, "lifetime_ranges", "duty in [0, 100], Vth finite");
  checks.expect(monotone, "vth_monotone", "aging never lowers a Vth");
}

void check_fleet(const core::FleetSpec& spec, const core::FleetReport& report, Checks& checks) {
  const auto& groups = report.groups();
  bool shape = groups.size() == spec.policies.size() * spec.workloads.size();
  bool ranges = true;
  for (const auto& g : groups) {
    shape = shape && g.failure_years.size() == static_cast<std::size_t>(spec.chips);
    ranges = ranges && std::is_sorted(g.failure_years.begin(), g.failure_years.end());
    for (double y : g.failure_years) ranges = ranges && finite_in(y, 0.0, spec.max_years);
  }
  checks.expect(shape, "fleet_shape", "one group per policy, one lifetime per chip");
  checks.expect(ranges, "fleet_lifetimes", "finite, <= max_years, ascending");
  // Baseline never gates, so its buffers age fastest.
  bool baseline_worst = !groups.empty() && spec.policies[groups[0].policy_index] ==
                                               core::PolicyKind::kBaseline;
  for (const auto& g : groups)
    baseline_worst = baseline_worst && groups[0].mean_years <= g.mean_years;
  checks.expect(baseline_worst, "baseline_worst", "baseline has the lowest mean lifetime");
}

}  // namespace

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> kAll{
      {"paper-loaded", Kind::kRun},       {"sparse-8x8", Kind::kRun},
      {"damq-bursty", Kind::kRun},        {"lifetime-study", Kind::kLifetime},
      {"fleet-x17", Kind::kFleet},
  };
  return kAll;
}

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

RunSpec window_spec(const WorkloadInfo& info, const Params& params) {
  if (info.kind == Kind::kRun) return run_spec(info, params);
  RunSpec r;
  r.policy = core::PolicyKind::kSensorWise;
  std::uint64_t silicon_seed = 0;
  if (info.kind == Kind::kLifetime) {
    // The first measurement epoch of LifetimeEngine: its warm-up rule, its
    // epoch salt, and fresh silicon passed as explicit Vth vectors.
    const LifetimeSpec l = lifetime_spec(params);
    r.scenario = l.scenario;
    r.scenario.warmup_cycles = l.options.measure_cycles_per_epoch / 5;
    r.scenario.measure_cycles = l.options.measure_cycles_per_epoch;
    r.workload = l.workload;
    r.workload.seed_salt ^= 0x11d0ULL;
    r.options = l.options.runner;
    silicon_seed = r.scenario.pv_seed();
  } else {
    // Chip 0 of the fleet's sensor-wise group.
    const core::FleetSpec f = fleet_spec(params);
    r.scenario = f.scenario;
    r.workload = f.workloads.front().workload;
    r.options = f.runner;
    silicon_seed = core::fleet_chip_seed(r.scenario, 0);
  }
  r.options.policy.kind = r.policy;
  r.options.initial_vths = core::sample_network_vths(silicon_config(r.scenario),
                                                     core::pv_config_of(r.scenario), silicon_seed);
  return r;
}

Outcome run_body(const WorkloadInfo& info, const Params& params, LayerMetrics* layers) {
  Outcome out;
  switch (info.kind) {
    case Kind::kRun: {
      const RunSpec spec = run_spec(info, params);
      core::RunResult result =
          core::run_experiment(spec.scenario, spec.policy, spec.workload, spec.options);
      out.json = core::to_json(result);
      out.sim_cycles = static_cast<double>(spec.scenario.total_cycles());
      out.result = std::move(result);
      break;
    }
    case Kind::kLifetime: {
      const LifetimeSpec spec = lifetime_spec(params);
      auto t0 = Clock::now();
      core::LifetimeEngine engine(spec.scenario, core::PolicyKind::kSensorWise, spec.workload,
                                  spec.sampled_port, spec.options);
      const double ctor_s = seconds_since(t0);
      t0 = Clock::now();
      core::LifetimeEngineResult result = engine.run();
      const double run_s = seconds_since(t0);
      if (layers != nullptr) {
        (*layers)["core.lifetime.ctor_s"] = {ctor_s, "s"};
        (*layers)["core.lifetime.run_s"] = {run_s, "s"};
        (*layers)["core.lifetime.measured_epochs"] = {static_cast<double>(result.measured_epochs), "count"};
        (*layers)["core.lifetime.extrapolated_epochs"] = {
            static_cast<double>(result.extrapolated_epochs), "count"};
      }
      out.json = lifetime_json(result);
      // Each measured epoch is one window: measure/5 warm-up + measure.
      const auto window = spec.options.measure_cycles_per_epoch;
      out.sim_cycles = static_cast<double>(result.measured_epochs) *
                       static_cast<double>(window / 5 + window);
      out.units = spec.options.epochs;
      out.rate_metric = "epochs_per_s";
      out.rate_unit = "epochs/s";
      out.result = std::move(result);
      break;
    }
    case Kind::kFleet: {
      const core::FleetSpec spec = fleet_spec(params);
      core::FleetReport report = core::run_fleet(spec, kFleetWorkers);
      out.json = report.to_json();
      out.units = static_cast<double>(spec.total_points());
      out.sim_cycles = out.units * static_cast<double>(spec.scenario.total_cycles());
      out.rate_metric = "chips_per_s";
      out.rate_unit = "points/s";
      out.result = std::move(report);
      break;
    }
  }
  return out;
}

double setup_body(const WorkloadInfo& info, const Params& params) {
  const auto t0 = Clock::now();
  switch (info.kind) {
    case Kind::kRun: {
      RunSpec spec = run_spec(info, params);
      spec.scenario.warmup_cycles = 0;
      spec.scenario.measure_cycles = 1;
      core::run_experiment(spec.scenario, spec.policy, spec.workload, spec.options);
      break;
    }
    case Kind::kLifetime: {
      const LifetimeSpec spec = lifetime_spec(params);
      core::LifetimeEngine engine(spec.scenario, core::PolicyKind::kSensorWise, spec.workload,
                                  spec.sampled_port, spec.options);
      break;
    }
    case Kind::kFleet: {
      core::FleetSpec spec = fleet_spec(params);
      spec.chips = 1;
      spec.scenario.warmup_cycles = 0;
      spec.scenario.measure_cycles = 1;
      core::run_fleet(spec, kFleetWorkers);
      break;
    }
  }
  return seconds_since(t0);
}

void Checks::expect(bool ok, const std::string& name, const std::string& detail) {
  ++ops_;
  if (!ok) failures_.push_back(detail.empty() ? name : name + ": " + detail);
}

void check_outputs(const WorkloadInfo& info, const Params& params, const Outcome& outcome,
                   Checks& checks, LayerMetrics* layers) {
  switch (info.kind) {
    case Kind::kRun: {
      RunSpec spec = run_spec(info, params);
      check_run(spec, std::get<core::RunResult>(outcome.result), checks);
      // The literal per-cycle scheduler must reproduce the default one.
      spec.options.scheduler = noc::SchedulerMode::kStepped;
      const std::string stepped =
          core::to_json(core::run_experiment(spec.scenario, spec.policy, spec.workload, spec.options));
      checks.expect(stepped == outcome.json, "stepped_identical",
                    "digests " + fnv1a_hex(stepped) + " vs " + fnv1a_hex(outcome.json));
      break;
    }
    case Kind::kLifetime:
      check_lifetime(lifetime_spec(params), std::get<core::LifetimeEngineResult>(outcome.result),
                     checks);
      break;
    case Kind::kFleet: {
      const core::FleetSpec spec = fleet_spec(params);
      check_fleet(spec, std::get<core::FleetReport>(outcome.result), checks);
      const std::string merged = sharded_fleet_json(spec, layers);
      checks.expect(merged == outcome.json, "shard_merge_identical",
                    "digests " + fnv1a_hex(merged) + " vs " + fnv1a_hex(outcome.json));
      break;
    }
  }
}

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace e2e
