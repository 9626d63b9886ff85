// The traced run: the object graph core::run_experiment builds, assembled
// here from public API so that counting decorators can sit between the
// network and its gate controller and traffic sources. Every call is
// counted; one call in kSampleEvery is timed, with the cost of reading the
// clock calibrated and subtracted, because timing every decide() call
// inflated wall time by 42% (4x4 at 0.2) and 121% (8x8 at 0.005).

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "e2e.hpp"
#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/util/rng.hpp"

namespace e2e {

namespace {

constexpr std::uint64_t kSampleEvery = 16;

/// Counts every call it wraps and times one in kSampleEvery.
class CallTimer {
 public:
  template <typename F>
  auto operator()(F&& call) {
    if (calls_++ % kSampleEvery != 0) return call();
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      note(t0);
    } else {
      auto result = call();
      note(t0);
      return result;
    }
  }

  std::uint64_t calls() const { return calls_; }
  /// Estimated total seconds spent inside the wrapped calls.
  double total_s(double clock_read_s) const {
    if (sampled_ == 0) return 0.0;
    const double per_call = std::max(0.0, sampled_s_ / sampled_ - clock_read_s);
    return per_call * static_cast<double>(calls_);
  }

 private:
  void note(Clock::time_point t0) {
    sampled_s_ += seconds_since(t0);
    ++sampled_;
  }

  std::uint64_t calls_ = 0;
  std::uint64_t sampled_ = 0;
  double sampled_s_ = 0.0;
};

/// Seconds one timed sample adds around an empty call.
double clock_read_cost_s() {
  constexpr int kReads = 100'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  return seconds_since(t0) / kReads;
}

class TracedController final : public noc::IGateController {
 public:
  explicit TracedController(core::PolicyGateController& inner) : inner_(inner) {}

  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override {
    return decide_([&] { return inner_.decide(key, view, new_traffic, now); });
  }
  void post_cycle(sim::Cycle now) override {
    post_cycle_([&] { inner_.post_cycle(now); });
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    return next_event_([&] { return inner_.next_event_cycle(now); });
  }
  const char* name() const override { return inner_.name(); }

  CallTimer decide_;
  CallTimer post_cycle_;
  CallTimer next_event_;

 private:
  core::PolicyGateController& inner_;
};

/// Shared by every node's decorator: the traffic layer is one module.
struct TrafficTimers {
  CallTimer generate;
  CallTimer next_event;
  std::uint64_t packets = 0;
};

class TracedSource final : public noc::ITrafficSource {
 public:
  TracedSource(std::unique_ptr<noc::ITrafficSource> inner, TrafficTimers& timers)
      : inner_(std::move(inner)), timers_(timers) {}

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override {
    auto request = timers_.generate([&] { return inner_->maybe_generate(now); });
    if (request) ++timers_.packets;
    return request;
  }
  std::size_t generate_burst(sim::Cycle now, noc::PacketRequest* out, std::size_t max) override {
    const std::size_t n = timers_.generate([&] { return inner_->generate_burst(now, out, max); });
    timers_.packets += n;
    return n;
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    return timers_.next_event([&] { return inner_->next_event_cycle(now); });
  }
  void save(sim::SnapshotWriter& w) const override { inner_->save(w); }
  void load(sim::SnapshotReader& r) override { inner_->load(r); }

 private:
  std::unique_ptr<noc::ITrafficSource> inner_;
  TrafficTimers& timers_;
};

/// The scheduler run_experiment selects from these options, whichever shape
/// RunnerOptions has: a plain mode, or an optional mode with the legacy
/// fast_forward fallback.
template <typename Net, typename Options>
void select_scheduler(Net& network, const Options& options) {
  if constexpr (requires { network.set_scheduler_mode(options.scheduler); }) {
    network.set_scheduler_mode(options.scheduler);
  } else if constexpr (requires { options.fast_forward; }) {
    if (options.scheduler)
      network.set_scheduler_mode(*options.scheduler);
    else
      network.set_fast_forward(options.fast_forward);
  } else {
    if (options.scheduler) network.set_scheduler_mode(*options.scheduler);
  }
}

/// run_experiment's NocConfig: the scenario in phit units.
noc::NocConfig noc_config(const sim::Scenario& s) {
  const int ppf = s.phits_per_flit();
  noc::NocConfig config;
  config.width = s.mesh_width;
  config.height = s.mesh_height;
  config.topology = noc::parse_topology_kind(s.topology);
  config.routing = noc::parse_routing_algo(s.routing);
  config.concentration = s.concentration;
  config.num_vcs = s.num_vcs;
  config.num_vnets = s.num_vnets;
  config.buffer_depth = s.buffer_depth * ppf;
  config.buffer_org = noc::parse_buffer_org(s.buffer_org);
  if (config.buffer_org == noc::BufferOrg::kShared) config.shared_reserve = s.shared_reserve * ppf;
  config.packet_length = s.packet_length * ppf;
  config.wakeup_latency = s.wakeup_latency;
  config.extra_pipeline_stages = s.router_stages - 3;
  return config;
}

/// The install_* seeding loops, with each source wrapped in a decorator.
void install_traced_sources(noc::Network& network, const RunSpec& spec, TrafficTimers& timers) {
  const noc::NocConfig& cfg = network.config();
  const int ppf = spec.scenario.phits_per_flit();
  util::SplitMix64 seeder(spec.scenario.traffic_seed() ^ spec.workload.seed_salt);
  for (noc::NodeId id = 0; id < network.nodes(); ++id) {
    std::unique_ptr<noc::ITrafficSource> source;
    switch (spec.workload.kind) {
      case core::Workload::Kind::kSynthetic:
        source = std::make_unique<traffic::SyntheticSource>(
            id, spec.scenario.injection_rate * ppf, cfg.packet_length,
            traffic::DestinationPattern(spec.workload.pattern, cfg.width, cfg.height),
            seeder.next());
        break;
      case core::Workload::Kind::kDatacenter: {
        traffic::DatacenterProfile profile = spec.workload.datacenter;
        profile.user_rate *= ppf;
        profile.packet_length = cfg.packet_length;
        source = std::make_unique<traffic::DatacenterAggregateSource>(
            id, profile, cfg.width, cfg.height, static_cast<noc::NodeId>(network.nodes() - 1),
            seeder.next());
        break;
      }
      default:
        throw std::logic_error("traced_run: only synthetic and datacenter workloads are traced");
    }
    network.set_traffic_source(id, std::make_unique<TracedSource>(std::move(source), timers));
  }
}

/// run_experiment's reduction of a finished network to a RunResult.
core::RunResult reduce(const RunSpec& spec, const noc::Network& network,
                       const core::PolicyGateController& controller) {
  core::RunResult result;
  result.scenario = spec.scenario;
  result.policy = spec.policy;
  for (noc::NodeId id = 0; id < network.num_routers(); ++id) {
    for (int p = 0; p < network.config().ports_per_router(); ++p) {
      const auto dir = static_cast<noc::Dir>(p);
      if (!network.router(id).has_input(dir)) continue;
      const noc::PortKey key{id, dir};
      core::PortResult port;
      port.duty_percent = network.duty_cycles_percent(id, dir);
      port.initial_vth_v = controller.initial_vths(key);
      port.most_degraded = controller.most_degraded(key);
      const auto& iu = network.router(id).input(dir);
      if (const noc::SharedBufferPool* pool = iu.pool()) {
        for (int s = 0; s < pool->num_slots(); ++s)
          port.gate_transitions.push_back(pool->slot_gate_transitions(s));
      } else {
        for (int v = 0; v < iu.num_vcs(); ++v)
          port.gate_transitions.push_back(iu.vc(v).gate_transitions());
      }
      for (std::uint64_t t : port.gate_transitions) result.total_gate_transitions += t;
      result.ports.emplace(key, std::move(port));
    }
  }
  const sim::StatRegistry& stats = network.stats();
  result.packets_offered = stats.counter("noc.packets_offered");
  result.flits_injected = stats.counter("noc.flits_injected");
  result.flits_ejected = stats.counter("noc.flits_ejected");
  result.packets_ejected = stats.counter("noc.packets_ejected");
  result.flits_forwarded = stats.counter("noc.flits_forwarded");
  result.flits_ejected_router = stats.counter("noc.flits_ejected_router");
  result.va_grants = stats.counter("noc.va_grants");
  result.ni_va_grants = stats.counter("noc.ni_va_grants");
  for (noc::NodeId id = 0; id < network.num_routers(); ++id)
    result.router_flits_out.push_back(stats.counter(network.router(id).flits_out_stat_key()));
  if (const auto* latency = stats.distribution("noc.packet_latency"))
    result.avg_packet_latency = latency->mean();
  result.throughput_flits_per_cycle_per_node =
      static_cast<double>(result.flits_ejected) /
      static_cast<double>(spec.scenario.measure_cycles) / network.nodes();
  return result;
}

/// Host nanoseconds of one Eq. 1 evaluation over this run's buffer duties.
double eq1_ns(const core::RunResult& result, const nbti::NbtiModel& model,
              const nbti::OperatingPoint& op) {
  std::vector<double> alphas;
  for (const auto& [key, port] : result.ports)
    for (double d : port.duty_percent) alphas.push_back(d / 100.0);
  const double seconds = 3.0 * 365.25 * 24 * 3600;
  double sink = 0.0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (double alpha : alphas) sink += model.delta_vth(alpha, seconds, op);
    calls += alphas.size();
  } while (seconds_since(t0) < 0.02);
  const double elapsed = seconds_since(t0);
  if (!std::isfinite(sink)) throw std::runtime_error("eq1_ns: Eq. 1 returned a non-finite shift");
  return elapsed * 1e9 / static_cast<double>(calls);
}

}  // namespace

TracedResult traced_run(const RunSpec& spec, LayerMetrics& m) {
  const sim::Scenario& s = spec.scenario;
  const double clock_read_s = clock_read_cost_s();

  const auto body_t0 = Clock::now();
  s.validate();
  auto t0 = Clock::now();
  noc::Network network(noc_config(s));
  m["noc.network_ctor_s"] = {seconds_since(t0), "s"};

  t0 = Clock::now();
  const nbti::NbtiModel model = core::calibrated_model_of(s, spec.options.nbti);
  m["nbti.calibrate_s"] = {seconds_since(t0), "s"};

  core::PolicyConfig policy = spec.options.policy;
  policy.kind = spec.policy;
  t0 = Clock::now();
  auto controller =
      spec.options.initial_vths.empty()
          ? core::PolicyGateController(network, policy, model, core::operating_point_of(s),
                                       core::pv_config_of(s), s.pv_seed())
          : core::PolicyGateController(network, policy, model, core::operating_point_of(s),
                                       spec.options.initial_vths, s.pv_seed() ^ 0xa9edULL);
  m["core.controller.ctor_s"] = {seconds_since(t0), "s"};
  TracedController traced(controller);
  network.set_gate_controller(&traced);

  TrafficTimers traffic;
  t0 = Clock::now();
  install_traced_sources(network, spec, traffic);
  m["traffic.install_s"] = {seconds_since(t0), "s"};
  select_scheduler(network, spec.options);

  t0 = Clock::now();
  network.set_measuring(false);
  network.run(s.warmup_cycles);
  network.stats().reset();
  network.set_measuring(true);
  network.run(s.measure_cycles);
  const double run_s = seconds_since(t0);

  t0 = Clock::now();
  const core::RunResult result = reduce(spec, network, controller);
  TracedResult out{core::to_json(result), 0.0};
  m["core.reduce_s"] = {seconds_since(t0), "s"};
  out.body_s = seconds_since(body_t0);

  const double decide_s = traced.decide_.total_s(clock_read_s);
  const double post_cycle_s = traced.post_cycle_.total_s(clock_read_s);
  const double controller_next_s = traced.next_event_.total_s(clock_read_s);
  const double generate_s = traffic.generate.total_s(clock_read_s);
  const double traffic_next_s = traffic.next_event.total_s(clock_read_s);
  const double self_s =
      run_s - decide_s - post_cycle_s - controller_next_s - generate_s - traffic_next_s;
  const double cycles = static_cast<double>(s.total_cycles());
  const double routers = network.num_routers();

  m["noc.run_s"] = {run_s, "s"};
  m["noc.self_s"] = {self_s, "s"};
  m["noc.ns_per_router_cycle"] = {self_s * 1e9 / (routers * cycles), "ns"};
  m["noc.flits_forwarded"] = {static_cast<double>(result.flits_forwarded), "count"};
  m["noc.va_grants"] = {static_cast<double>(result.va_grants), "count"};
  m["noc.gate_transitions"] = {static_cast<double>(result.total_gate_transitions), "count"};
  m["noc.packets_ejected"] = {static_cast<double>(result.packets_ejected), "count"};

  // Component steps: counted by the active-set scheduler itself; under the
  // stepped and fast-forward schedulers every executed cycle steps all.
  const sim::SkipStats& skips = network.skip_stats();
  double router_steps = 0.0;
  double ni_steps = 0.0;
  if (network.scheduler_mode() == noc::SchedulerMode::kActiveSet) {
    router_steps = static_cast<double>(network.scheduler_stats().router_steps);
    ni_steps = static_cast<double>(network.scheduler_stats().ni_steps);
  } else {
    const double executed = cycles - static_cast<double>(skips.cycles_skipped);
    router_steps = routers * executed;
    ni_steps = network.nodes() * executed;
  }
  m["sim.router_step_frac"] = {router_steps / (routers * cycles), "ratio"};
  m["sim.router_steps"] = {router_steps, "count"};
  m["sim.ni_steps"] = {ni_steps, "count"};
  m["sim.skips"] = {static_cast<double>(skips.skips), "count"};
  m["sim.cycles_skipped"] = {static_cast<double>(skips.cycles_skipped), "count"};

  m["core.controller.decide_calls"] = {static_cast<double>(traced.decide_.calls()), "count"};
  m["core.controller.decide_s"] = {decide_s, "s"};
  m["core.controller.post_cycle_s"] = {post_cycle_s, "s"};
  m["core.controller.next_event_calls"] = {static_cast<double>(traced.next_event_.calls()),
                                           "count"};

  m["traffic.generate_calls"] = {static_cast<double>(traffic.generate.calls()), "count"};
  m["traffic.generate_s"] = {generate_s, "s"};
  m["traffic.next_event_calls"] = {static_cast<double>(traffic.next_event.calls()), "count"};
  m["traffic.next_event_s"] = {traffic_next_s, "s"};
  m["traffic.packets"] = {static_cast<double>(traffic.packets), "count"};

  m["nbti.eq1_ns"] = {eq1_ns(result, model, core::operating_point_of(s)), "ns"};
  return out;
}

}  // namespace e2e
