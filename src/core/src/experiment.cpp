#include "nbtinoc/core/experiment.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "digest.hpp"
#include "nbtinoc/noc/state_probe.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/util/json.hpp"

namespace nbtinoc::core {

std::string digest_doubles(std::initializer_list<double> values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += '/';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  }
  return out;
}

std::string config_digest(const sim::Scenario& s, PolicyKind policy, const Workload& workload,
                          const RunnerOptions& options) {
  std::string d = "scenario=" + s.name;
  d += " mesh=" + std::to_string(s.mesh_width) + "x" + std::to_string(s.mesh_height);
  d += " topo=" + s.topology + "/" + std::to_string(s.concentration);
  d += " routing=" + s.routing;
  d += " vcs=" + std::to_string(s.num_vcs) + " vnets=" + std::to_string(s.num_vnets);
  d += " depth=" + std::to_string(s.buffer_depth) + " pkt=" + std::to_string(s.packet_length);
  d += " org=" + s.buffer_org + "/" + std::to_string(s.shared_reserve);
  d += " bits=" + std::to_string(s.flit_width_bits) + "/" + std::to_string(s.link_width_bits);
  d += " wake=" + std::to_string(s.wakeup_latency) + " stages=" + std::to_string(s.router_stages);
  d += " rate=" + digest_doubles({s.injection_rate});
  d += " warmup=" + std::to_string(s.warmup_cycles) + " measure=" + std::to_string(s.measure_cycles);
  d += " clock=" + digest_doubles({s.clock_period_s});
  d += " tech=" + std::to_string(s.tech.node_nm) + "nm/" +
       digest_doubles({s.tech.vth_nominal_v, s.tech.vth_sigma_v, s.tech.vdd_v,
                       s.tech.temperature_k});
  d += " seeds=" + std::to_string(s.pv_seed()) + "/" + std::to_string(s.traffic_seed()) + "/" +
       std::to_string(s.fault_seed());
  d += " policy=";
  d += to_string(policy);
  const PolicyConfig& p = options.policy;
  d += " rr=" + std::to_string(p.rr_rotation_period) + " hold=" + std::to_string(p.decision_period);
  d += " sensor=" + std::to_string(p.sensor.epoch_cycles) + "/" +
       digest_doubles({p.sensor.quantization_v, p.sensor.noise_sigma_v,
                       p.sensor.time_acceleration});
  d += " health=" + digest_doubles({p.health.plausible_min_v, p.health.plausible_max_v}) + "/" +
       std::to_string(p.health.implausible_epochs_to_quarantine) + "/" +
       std::to_string(p.health.staleness_epochs) + "/" +
       std::to_string(p.health.healthy_epochs_to_recover);
  const nbti::NbtiParams& n = options.nbti;
  d += " nbti=" + digest_doubles({n.n, n.tox_nm, n.te_nm, n.xi1, n.xi2, n.ea_ev,
                                  n.inv_t0_nm2_per_s, n.e0_v_per_nm, n.kv_prefactor,
                                  n.anchor_dvth_v, n.anchor_years, n.short_time_ramp_s});
  switch (workload.kind) {
    case Workload::Kind::kSynthetic:
      d += " workload=synthetic/" + std::to_string(static_cast<int>(workload.pattern));
      break;
    case Workload::Kind::kBenchmarkMix:
      d += " workload=mix/" + workload.mix.describe();
      break;
    case Workload::Kind::kTrace:
      // Pins the trace identity (its own digest string plus shape) so a
      // snapshot taken under one trace refuses to resume under another.
      d += " workload=trace/" + std::to_string(workload.trace->node_count()) + "n/" +
           std::to_string(workload.trace->record_count()) + "r/\"" + workload.trace->digest() +
           "\"";
      break;
    case Workload::Kind::kDatacenter:
      d += " workload=datacenter/" + workload.datacenter.describe();
      break;
  }
  d += " salt=" + std::to_string(workload.seed_salt);
  if (const sim::FaultPlan& f = options.faults; f.enabled()) {
    d += " faults=" + std::to_string(f.seed_salt) + "/" +
         digest_doubles({f.sensor_stuck_rate, f.sensor_drift_rate, f.sensor_death_rate,
                         f.sensor_repair_rate, f.drift_step_v, f.dead_reading_v,
                         f.gate_cmd_drop_rate, f.gate_cmd_flip_rate, f.down_up_drop_rate,
                         f.wake_fail_rate});
    // Sites and kills in plan order.
    for (const auto& [router, port] : f.targets)
      d += " target=" + std::to_string(router) + "/" + std::to_string(port);
    for (const sim::StructuralFault& k : f.structural)
      d += " kill=" + std::to_string(k.router) + "/" + std::to_string(k.port) + "@" +
           std::to_string(k.cycle);
  }
  if (!options.initial_vths.empty())
    d += " explicit_vths=" + std::to_string(options.initial_vths.size());
  return d;
}

Workload Workload::synthetic(traffic::PatternKind pattern) {
  Workload w;
  w.kind = Kind::kSynthetic;
  w.pattern = pattern;
  return w;
}

Workload Workload::benchmark_mix(traffic::BenchmarkMix mix, std::uint64_t seed_salt) {
  Workload w;
  w.kind = Kind::kBenchmarkMix;
  w.mix = std::move(mix);
  w.seed_salt = seed_salt;
  return w;
}

Workload Workload::trace_replay(std::shared_ptr<const traffic::TraceFile> trace) {
  if (trace == nullptr)
    throw std::invalid_argument("Workload::trace_replay: null trace (open one with "
                                "traffic::TraceFile::open)");
  Workload w;
  w.kind = Kind::kTrace;
  w.trace = std::move(trace);
  return w;
}

Workload Workload::datacenter_aggregate(traffic::DatacenterProfile profile,
                                        std::uint64_t seed_salt) {
  profile.validate();
  Workload w;
  w.kind = Kind::kDatacenter;
  w.datacenter = profile;
  w.seed_salt = seed_salt;
  return w;
}

const PortResult& RunResult::port(noc::NodeId node, noc::Dir dir) const {
  const auto it = ports.find(noc::PortKey{node, dir});
  if (it == ports.end()) throw std::invalid_argument("RunResult::port: no such port");
  return it->second;
}

double RunResult::md_duty(noc::NodeId node, noc::Dir dir) const {
  const PortResult& p = port(node, dir);
  return p.duty_percent.at(static_cast<std::size_t>(p.most_degraded));
}

nbti::OperatingPoint operating_point_of(const sim::Scenario& scenario) {
  nbti::OperatingPoint op;
  op.vdd_v = scenario.tech.vdd_v;
  op.vth_v = scenario.tech.vth_nominal_v;
  op.temperature_k = scenario.tech.temperature_k;
  op.clock_period_s = scenario.clock_period_s;
  return op;
}

nbti::PvConfig pv_config_of(const sim::Scenario& scenario) {
  nbti::PvConfig pv;
  pv.vth_mean_v = scenario.tech.vth_nominal_v;
  pv.vth_sigma_v = scenario.tech.vth_sigma_v;
  return pv;
}

nbti::NbtiModel calibrated_model_of(const sim::Scenario& scenario, const nbti::NbtiParams& params) {
  return nbti::NbtiModel::calibrated(params, operating_point_of(scenario));
}

noc::NocConfig noc_config_of(const sim::Scenario& scenario) {
  // The network simulates in *phit* units — the quantum a 32b link moves per
  // cycle (Table I: 64b flits, 32b links => 2 phits/flit). Packet length and
  // buffer depth convert from flits; run_experiment converts the injection
  // rate from flits/cycle to phits/cycle.
  const int ppf = scenario.phits_per_flit();
  noc::NocConfig config;
  config.width = scenario.mesh_width;
  config.height = scenario.mesh_height;
  config.topology = noc::parse_topology_kind(scenario.topology);
  config.routing = noc::parse_routing_algo(scenario.routing);
  config.concentration = scenario.concentration;
  config.num_vcs = scenario.num_vcs;
  config.num_vnets = scenario.num_vnets;
  config.buffer_depth = scenario.buffer_depth * ppf;
  config.buffer_org = noc::parse_buffer_org(scenario.buffer_org);
  // The reserve is a flit count in the scenario, a phit count in the
  // network — the same scaling buffer_depth gets. Partitioned keeps the
  // NocConfig default (the knob is inert there and its validator pins it).
  if (config.buffer_org == noc::BufferOrg::kShared)
    config.shared_reserve = scenario.shared_reserve * ppf;
  config.packet_length = scenario.packet_length * ppf;
  config.wakeup_latency = scenario.wakeup_latency;
  if (scenario.router_stages < 3)
    throw std::invalid_argument("noc_config_of: router_stages must be >= 3");
  config.extra_pipeline_stages = scenario.router_stages - 3;
  return config;
}

RunResult run_experiment(const sim::Scenario& scenario, PolicyKind policy,
                         const Workload& workload, const RunnerOptions& options) {
  scenario.validate();
  options.policy.validate();
  options.faults.validate();

  // Gating granularity must match the buffer organization: VC policies park
  // whole VC banks (which a DAMQ descriptor does not have), slot policies
  // gate pool slots (which a partitioned port does not have). Baseline
  // never gates and runs on both.
  const bool slot_policy = policy == PolicyKind::kSensorWiseSlotMd || policy == PolicyKind::kRrSlot;
  if (slot_policy && scenario.buffer_org != "shared")
    throw std::invalid_argument("run_experiment: policy '" + to_string(policy) +
                                "' gates pool slots and requires buffer_org=shared (scenario '" +
                                scenario.name + "' uses '" + scenario.buffer_org +
                                "'); pick a VC-granularity policy or set buffer_org=shared");
  if (!slot_policy && policy != PolicyKind::kBaseline && scenario.buffer_org == "shared")
    throw std::invalid_argument("run_experiment: VC-granularity policy '" + to_string(policy) +
                                "' cannot drive the shared organization (VC descriptors hold no "
                                "gateable buffers); use sensor-wise-slot-md, rr-slot, or baseline");

  const int ppf = scenario.phits_per_flit();
  const noc::NocConfig config = noc_config_of(scenario);
  noc::Network network(config);

  const nbti::NbtiModel model = calibrated_model_of(scenario, options.nbti);
  PolicyConfig policy_config = options.policy;
  policy_config.kind = policy;
  auto controller =
      options.initial_vths.empty()
          ? PolicyGateController(network, policy_config, model, operating_point_of(scenario),
                                 pv_config_of(scenario), scenario.pv_seed())
          : PolicyGateController(network, policy_config, model, operating_point_of(scenario),
                                 options.initial_vths, scenario.pv_seed() ^ 0xa9edULL);
  controller.attach();

  // Fault injection: constructed only for a nonzero plan, so the default
  // RunnerOptions path builds the exact object graph it always did.
  std::optional<sim::FaultInjector> injector;
  if (options.faults.enabled()) {
    injector.emplace(options.faults, scenario.fault_seed() ^ options.faults.seed_salt);
    injector->bind_stats(&network.stats());
    network.set_fault_injector(&*injector);
  }

  const std::uint64_t traffic_seed = scenario.traffic_seed() ^ workload.seed_salt;
  switch (workload.kind) {
    case Workload::Kind::kSynthetic:
      traffic::install_synthetic_traffic(network, workload.pattern,
                                         scenario.injection_rate * ppf, traffic_seed);
      break;
    case Workload::Kind::kBenchmarkMix:
      traffic::install_benchmark_mix(network, workload.mix, traffic_seed, /*hotspot=*/-1,
                                     /*rate_scale=*/static_cast<double>(ppf));
      break;
    case Workload::Kind::kTrace:
      // Trace records carry phit-unit lengths (captured at the NI), so no
      // ppf rescaling happens here; the vnet check catches a trace captured
      // under a wider vnet configuration before any record misroutes.
      if (workload.trace == nullptr)
        throw std::invalid_argument("run_experiment: trace workload holds no trace");
      if (workload.trace->vnet_count() > config.num_vnets)
        throw std::invalid_argument(
            "run_experiment: trace uses " + std::to_string(workload.trace->vnet_count()) +
            " vnets but this scenario has " + std::to_string(config.num_vnets) +
            " (trace digest: \"" + workload.trace->digest() + "\")");
      traffic::install_trace_replay(network, workload.trace);
      break;
    case Workload::Kind::kDatacenter:
      traffic::install_datacenter_traffic(network, workload.datacenter, traffic_seed,
                                          /*rate_scale=*/static_cast<double>(ppf));
      break;
  }
  if (options.capture_trace != nullptr) {
    if (options.resume_from)
      throw std::invalid_argument(
          "run_experiment: capture_trace cannot combine with resume_from (the cycles before "
          "the snapshot are not observable, so the capture would silently be a suffix)");
    network.set_trace_sink(options.capture_trace);
  }

  const sim::Cycle total_cycles = scenario.warmup_cycles + scenario.measure_cycles;
  const bool snapshotting = options.snapshot_at.has_value();
  if (snapshotting || options.resume_from) {
    if (options.check_invariants)
      throw std::invalid_argument(
          "run_experiment: checkpoint/restore cannot combine with check_invariants (the "
          "per-cycle checker carries no snapshot state)");
    if (snapshotting && options.resume_from)
      throw std::invalid_argument(
          "run_experiment: resume_from and snapshot_at cannot combine in one run; resume "
          "first, then snapshot from a fresh run");
    if (snapshotting && options.snapshot_out == nullptr)
      throw std::invalid_argument("run_experiment: snapshot_at set but snapshot_out is null");
    if (snapshotting && *options.snapshot_at > total_cycles)
      throw std::invalid_argument(
          "run_experiment: snapshot_at " + std::to_string(*options.snapshot_at) +
          " is past this scenario's horizon (warmup + measure = " +
          std::to_string(total_cycles) + ")");
  }
  const std::string digest = config_digest(scenario, policy, workload, options);

  if (options.resume_from) {
    // Restore precedes scheduler selection: load_state rebuilds channel
    // queues, and active-set entry afterwards reconstructs the wake state
    // the snapshot deliberately omits.
    sim::SnapshotReader reader = sim::open_snapshot(*options.resume_from, digest);
    network.load_state(reader);
    controller.load(reader);
    reader.expect_end();
    if (network.clock().now() > total_cycles)
      throw sim::SnapshotError("snapshot cycle " + std::to_string(network.clock().now()) +
                               " is past this scenario's horizon (" +
                               std::to_string(total_cycles) + " cycles)");
  }
  network.set_scheduler_mode(options.scheduler);

  // One schedule for every run: warmup with stress accounting frozen, the
  // stats reset, measurement. A resumed run enters it at the snapshot's
  // cycle; its trackers carry their measuring flags, and a snapshot taken at
  // or before the warmup boundary replays the boundary (a fresh run saves
  // before the reset at snapshot_at == warmup). Splitting run(n) into
  // run(k); run(n - k) is bit-identical in every mode: all scheduler state
  // persists across run() calls and the end-of-segment stress sync is an
  // additive flush. Under the active set, step() runs one cycle of the
  // scheduled components, so the audited walk checks every cycle.
  std::optional<noc::InvariantChecker> checker;
  if (options.check_invariants) checker.emplace(network);
  std::optional<sim::Cycle> pause = options.snapshot_at;
  const auto advance_to = [&](sim::Cycle end) {
    if (!checker) {
      network.run(end - network.clock().now());
      return;
    }
    while (network.clock().now() < end) {
      network.step();
      checker->check();
    }
  };
  const auto run_until = [&](sim::Cycle end) {
    if (pause && *pause <= end) {
      advance_to(*pause);
      // Every run() segment ends with sync_stress_accounting(), so the lazy
      // stress state serialized here is already flushed through `now`.
      sim::SnapshotWriter writer;
      network.save_state(writer);
      controller.save(writer);
      *options.snapshot_out = sim::frame_snapshot(digest, writer.take());
      pause.reset();
    }
    advance_to(end);
  };
  if (!options.resume_from) network.set_measuring(false);
  if (network.clock().now() <= scenario.warmup_cycles) {
    run_until(scenario.warmup_cycles);
    network.stats().reset();
    network.set_measuring(true);
  }
  run_until(total_cycles);

  RunResult result = collect_result(scenario, policy, network, controller,
                                    /*faults_installed=*/injector.has_value());
  if (checker)
    for (const auto& v : checker->violations())
      result.invariant_violations.push_back("cycle " + std::to_string(v.cycle) + ": " + v.what);
  return result;
}

RunResult collect_result(const sim::Scenario& scenario, PolicyKind policy,
                         const noc::Network& network, const PolicyGateController& controller,
                         bool faults_installed) {
  const noc::NocConfig& config = network.config();
  RunResult result;
  result.scenario = scenario;
  result.policy = policy;
  for (noc::NodeId id = 0; id < network.num_routers(); ++id) {
    for (int p = 0; p < config.ports_per_router(); ++p) {
      const noc::Dir dir = static_cast<noc::Dir>(p);
      if (!network.router(id).has_input(dir)) continue;
      const noc::PortKey key{id, dir};
      PortResult port;
      port.duty_percent = network.duty_cycles_percent(id, dir);
      port.initial_vth_v = controller.initial_vths(key);
      port.most_degraded = controller.most_degraded(key);
      const auto& iu = network.router(id).input(dir);
      if (const noc::SharedBufferPool* pool = iu.pool()) {
        // Shared organization: gating happens per pool slot, so the
        // transition vector indexes slots (matching duty_percent and
        // initial_vth_v, which the tracker/sensor banks already size per
        // slot via buffers_per_port()).
        port.gate_transitions.reserve(static_cast<std::size_t>(pool->num_slots()));
        for (int s = 0; s < pool->num_slots(); ++s) {
          port.gate_transitions.push_back(pool->slot_gate_transitions(s));
          result.total_gate_transitions += pool->slot_gate_transitions(s);
        }
      } else {
        port.gate_transitions.reserve(static_cast<std::size_t>(iu.num_vcs()));
        for (int v = 0; v < iu.num_vcs(); ++v) {
          port.gate_transitions.push_back(iu.vc(v).gate_transitions());
          result.total_gate_transitions += iu.vc(v).gate_transitions();
        }
      }
      result.ports.emplace(key, std::move(port));
    }
  }

  result.packets_offered = network.stats().counter("noc.packets_offered");
  result.flits_injected = network.stats().counter("noc.flits_injected");
  result.flits_ejected = network.stats().counter("noc.flits_ejected");
  result.packets_ejected = network.stats().counter("noc.packets_ejected");
  result.flits_forwarded = network.stats().counter("noc.flits_forwarded");
  result.flits_ejected_router = network.stats().counter("noc.flits_ejected_router");
  result.va_grants = network.stats().counter("noc.va_grants");
  result.ni_va_grants = network.stats().counter("noc.ni_va_grants");
  result.router_flits_out.reserve(static_cast<std::size_t>(network.num_routers()));
  for (noc::NodeId id = 0; id < network.num_routers(); ++id)
    result.router_flits_out.push_back(
        network.stats().counter(network.router(id).flits_out_stat_key()));
  if (const auto* lat = network.stats().distribution("noc.packet_latency"))
    result.avg_packet_latency = lat->mean();
  if (faults_installed) {
    for (const auto& name : network.stats().counter_names())
      if (name.rfind("fault.", 0) == 0)
        result.fault_counters.emplace(name, network.stats().counter(name));
  }
  const double cycles = static_cast<double>(scenario.measure_cycles);
  result.throughput_flits_per_cycle_per_node =
      static_cast<double>(result.flits_ejected) / cycles / network.nodes();
  return result;
}

std::string to_json(const RunResult& result) {
  util::JsonWriter w;
  w.begin_object();
  w.key("scenario").begin_object();
  w.field("name", result.scenario.name)
      .field("mesh_width", result.scenario.mesh_width)
      .field("mesh_height", result.scenario.mesh_height);
  // Emitted only off the mesh default: mesh-run JSON stays byte-identical
  // to output produced before the topology layer existed.
  if (result.scenario.topology != "mesh") {
    w.field("topology", result.scenario.topology);
    if (result.scenario.topology == "cmesh")
      w.field("concentration", result.scenario.concentration);
  }
  // Same convention for the routing mode: "dor" runs stay byte-identical.
  if (result.scenario.routing != "dor") w.field("routing", result.scenario.routing);
  // And for the buffer organization: partitioned runs stay byte-identical.
  if (result.scenario.buffer_org != "partitioned") {
    w.field("buffer_org", result.scenario.buffer_org);
    w.field("shared_reserve", result.scenario.shared_reserve);
  }
  w.field("num_vcs", result.scenario.num_vcs)
      .field("num_vnets", result.scenario.num_vnets)
      .field("injection_rate", result.scenario.injection_rate)
      .field("warmup_cycles", static_cast<std::uint64_t>(result.scenario.warmup_cycles))
      .field("measure_cycles", static_cast<std::uint64_t>(result.scenario.measure_cycles));
  w.end_object();
  w.field("policy", to_string(result.policy));
  w.key("counters").begin_object();
  w.field("packets_offered", result.packets_offered)
      .field("flits_injected", result.flits_injected)
      .field("flits_ejected", result.flits_ejected)
      .field("packets_ejected", result.packets_ejected)
      .field("avg_packet_latency", result.avg_packet_latency)
      .field("throughput_flits_per_cycle_per_node", result.throughput_flits_per_cycle_per_node);
  w.end_object();
  // Omitted entirely for fault-free runs: their JSON stays byte-identical
  // to output produced before the fault subsystem existed.
  if (!result.fault_counters.empty()) {
    w.key("fault_counters").begin_object();
    for (const auto& [name, value] : result.fault_counters) w.field(name, value);
    w.end_object();
  }
  w.key("ports").begin_array();
  for (const auto& [key, port] : result.ports) {
    w.begin_object();
    w.field("router", key.router);
    w.field("port", noc::to_string(key.port));
    w.field("most_degraded", port.most_degraded);
    w.key("duty_percent").begin_array();
    for (double d : port.duty_percent) w.value(d);
    w.end_array();
    w.key("initial_vth_v").begin_array();
    for (double v : port.initial_vth_v) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

power::NocActivity activity_of(const RunResult& result) {
  const sim::Scenario& s = result.scenario;
  power::NocActivity a;
  a.window_seconds = static_cast<double>(s.measure_cycles) * s.clock_period_s;
  a.clock_period_s = s.clock_period_s;
  a.bits_per_flit = s.link_width_bits;  // physical transfer unit (phit)
  a.buffer_bits = s.buffer_depth * s.phits_per_flit() * s.link_width_bits;

  // Each buffer read feeds the crossbar; inter-router and ejection
  // traversals both cross it. Injection/ejection channels count as links.
  a.buffer_reads = result.flits_forwarded + result.flits_ejected_router;
  a.buffer_writes = a.buffer_reads;  // every buffered flit is written once per hop
  a.crossbar_traversals = a.buffer_reads;
  a.link_traversals = result.flits_forwarded + result.flits_injected + result.flits_ejected;
  a.allocator_grants = result.va_grants + result.ni_va_grants + a.buffer_reads;
  a.gating_transitions = result.total_gate_transitions;

  // Powered/gated cycle totals from the per-port NBTI trackers: each VC was
  // measured for exactly measure_cycles cycles.
  const double window = static_cast<double>(s.measure_cycles);
  double powered = 0.0;
  for (const auto& [key, port] : result.ports)
    for (double duty : port.duty_percent) powered += duty / 100.0 * window;
  double total_buffer_cycles = 0.0;
  for (const auto& [key, port] : result.ports)
    total_buffer_cycles += window * static_cast<double>(port.duty_percent.size());
  a.powered_buffer_cycles = static_cast<std::uint64_t>(powered);
  a.gated_buffer_cycles = static_cast<std::uint64_t>(total_buffer_cycles - powered);
  return a;
}

}  // namespace nbtinoc::core
