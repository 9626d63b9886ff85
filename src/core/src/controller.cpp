#include "nbtinoc/core/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "nbtinoc/noc/topology.hpp"

namespace nbtinoc::core {

void PolicyConfig::validate() const {
  if (rr_rotation_period == 0)
    throw std::invalid_argument(
        "PolicyConfig: rr_rotation_period must be >= 1 (the rr candidate is "
        "(now / rr_rotation_period) % num_vcs; 0 divides by zero)");
  if (decision_period == 0)
    throw std::invalid_argument(
        "PolicyConfig: decision_period must be >= 1 (0 would never refresh a "
        "held decision; use 1 for the paper's per-cycle behavior)");
  if (sensor.epoch_cycles == 0)
    throw std::invalid_argument(
        "PolicyConfig: sensor.epoch_cycles must be >= 1 (a zero-length epoch "
        "would refresh sensors every cycle and defeat the Down_Up protocol)");
}

std::map<noc::PortKey, std::vector<double>> sample_network_vths(const noc::NocConfig& config,
                                                                const nbti::PvConfig& pv,
                                                                std::uint64_t seed) {
  nbti::ProcessVariation sampler(pv, seed);
  const auto topo = noc::Topology::create(config);
  std::map<noc::PortKey, std::vector<double>> out;
  for (noc::NodeId id = 0; id < topo->num_routers(); ++id) {
    // Die-position gradient coordinates come from the topology (identical
    // to the mesh's x/(width-1) arithmetic on non-concentrated layouts, so
    // the sampling stream — and every seeded experiment — is unchanged).
    const double xn = topo->norm_x(id);
    const double yn = topo->norm_y(id);
    for (int p = 0; p < topo->ports_per_router(); ++p) {
      const noc::Dir port = static_cast<noc::Dir>(p);
      // An input port exists iff a neighbor feeds it; local ports always
      // exist.
      if (!noc::is_local(port) && topo->neighbor(id, port) == noc::kInvalidNode) continue;
      // One Vth per gateable buffer: a VC bank entry under the partitioned
      // organization, a pool slot under the shared one (same count when
      // partitioned, so established seeds keep their silicon).
      out.emplace(noc::PortKey{id, port},
                  sampler.sample_bank(static_cast<std::size_t>(config.buffers_per_port()), xn, yn));
    }
  }
  return out;
}

PolicyGateController::PolicyGateController(noc::Network& network, PolicyConfig config,
                                           const nbti::NbtiModel& model, nbti::OperatingPoint op,
                                           const nbti::PvConfig& pv, std::uint64_t pv_seed)
    : PolicyGateController(network, config, model, op,
                           sample_network_vths(network.config(), pv, pv_seed),
                           pv_seed ^ 0x6e6f697365ULL /* "noise" */) {}

PolicyGateController::PolicyGateController(noc::Network& network, PolicyConfig config,
                                           const nbti::NbtiModel& model, nbti::OperatingPoint op,
                                           std::map<noc::PortKey, std::vector<double>> initial_vths,
                                           std::uint64_t noise_seed)
    : network_(&network), config_(config), name_(to_string(config.kind)),
      shared_(network.config().shared_buffers()),
      ports_per_router_(network.config().ports_per_router()),
      ports_(static_cast<std::size_t>(network.num_routers() * ports_per_router_)),
      h_quarantined_cycles_(network.stats().intern("fault.quarantined_port_cycles")),
      h_quarantines_(network.stats().intern("fault.quarantines")),
      h_recoveries_(network.stats().intern("fault.recoveries")),
      degradation_scratch_(static_cast<std::size_t>(network.config().buffers_per_port())) {
  // Sanity: the keys must be exactly the existing input ports, each with one
  // Vth per gateable buffer (VC bank entry or pool slot).
  const auto& cfg = network.config();
  for (const auto& [key, bank_vths] : initial_vths) {
    const int port = static_cast<int>(key.port);
    if (key.router < 0 || key.router >= network.num_routers() || port < 0 ||
        port >= ports_per_router_ || !network.router(key.router).has_input(key.port))
      throw std::invalid_argument("PolicyGateController: initial_vths names router " +
                                  std::to_string(key.router) + " port " + std::to_string(port) +
                                  ", which the network lacks");
    if (bank_vths.size() != static_cast<std::size_t>(cfg.buffers_per_port()))
      throw std::invalid_argument("PolicyGateController: initial_vths must cover every port");
  }
  for (noc::NodeId id = 0; id < network.num_routers(); ++id)
    for (int p = 0; p < ports_per_router_; ++p)
      if (network.router(id).has_input(static_cast<noc::Dir>(p))) ++num_ports_;
  if (initial_vths.size() != num_ports_)
    throw std::invalid_argument("PolicyGateController: initial_vths must cover every port");

  util::SplitMix64 noise_seeder(noise_seed);
  for (auto& [key, bank_vths] : initial_vths) {
    PortContext ctx{key, bank_vths,
                    nbti::NbtiSensorBank(bank_vths, model, op, config_.sensor, noise_seeder.next()),
                    std::vector<double>(bank_vths.size())};
    ctx.deliver_intact();
    ports_[slot_of(key)].emplace(std::move(ctx));
  }
  if (config_.decision_period > 1 && !shared_)
    held_.resize(ports_.size() * static_cast<std::size_t>(cfg.total_vcs()));
}

void PolicyGateController::PortContext::deliver_intact() {
  for (std::size_t i = 0; i < effective_vths.size(); ++i) effective_vths[i] = sensors.measured_vth(i);
}

const char* PolicyGateController::name() const { return name_.c_str(); }

const PolicyGateController::PortContext& PolicyGateController::context(
    const noc::PortKey& key) const {
  const int port = static_cast<int>(key.port);
  if (key.router >= 0 && port >= 0 && port < ports_per_router_) {
    const std::size_t slot = slot_of(key);
    if (slot < ports_.size() && ports_[slot]) return *ports_[slot];
  }
  throw std::out_of_range("PolicyGateController: no input port at router " +
                          std::to_string(key.router) + " port " + std::to_string(port));
}

const nbti::NbtiSensorBank& PolicyGateController::sensors(const noc::PortKey& key) const {
  return context(key).sensors;
}

const std::vector<double>& PolicyGateController::initial_vths(const noc::PortKey& key) const {
  return context(key).initial_vths;
}

int PolicyGateController::most_degraded(const noc::PortKey& key) const {
  return static_cast<int>(context(key).sensors.most_degraded());
}

noc::GateCommand PolicyGateController::decide(const noc::PortKey& key,
                                              const noc::OutVcStateView& view, bool new_traffic,
                                              sim::Cycle now) {
  // Shared organization: decisions are slot-form and already rate-limited
  // to one gate + one wake per port per cycle, and the VC-indexed hysteresis
  // cache below cannot interpret slot ids — compute fresh every call.
  if (config_.decision_period <= 1 || shared_) return compute(key, view, new_traffic, now);
  // Hysteresis: hold the previous decision for decision_period cycles.
  // Exceptions (asynchronous overrides, both computable from signals the
  // upstream router already has): traffic while the held command keeps
  // nothing awake, or while the kept VC has meanwhile been allocated —
  // either would stall VA for up to a full period. The traffic bit is the
  // one the deciding policy acts on: sensor-wise-no-traffic takes every
  // cycle as carrying traffic, as compute() does, so it never holds a
  // command that keeps nothing awake.
  HeldDecision& held = held_.at(held_index(key, view.first_vc()));
  const bool traffic =
      new_traffic || (config_.kind == PolicyKind::kSensorWiseNoTraffic &&
                      acting_kind(context(key)) == PolicyKind::kSensorWiseNoTraffic);
  const bool kept_unusable =
      held.valid && held.command.enable &&
      (held.command.keep_vc < 0 || view.is_active(held.command.keep_vc));
  const bool must_refresh = !held.valid || now >= held.held_until ||
                            (traffic && (!held.command.enable || kept_unusable));
  if (must_refresh) {
    held.command = compute(key, view, new_traffic, now);
    held.held_until = now + config_.decision_period;
    held.valid = true;
  }
  return held.command;
}

PolicyKind PolicyGateController::acting_kind(const PortContext& ctx) const {
  if (!reads_sensors(config_.kind) || !ctx.quarantined || !fault_targets(ctx.key))
    return config_.kind;
  return config_.kind == PolicyKind::kSensorWiseSlotMd ? PolicyKind::kRrSlot
                                                       : PolicyKind::kRrNoSensor;
}

bool PolicyGateController::fault_targets(const noc::PortKey& key) const {
  const sim::FaultInjector* injector = network_->fault_injector();
  return injector != nullptr && injector->enabled() &&
         injector->plan().targets_port(static_cast<int>(key.router), static_cast<int>(key.port));
}

noc::GateCommand PolicyGateController::compute(const noc::PortKey& key,
                                               const noc::OutVcStateView& view, bool new_traffic,
                                               sim::Cycle now) {
  // Sensor policies act on the last delivered Down_Up report (effective_vths:
  // intact off the fault plan, possibly stale or corrupted on a targeted
  // port). A quarantined port keeps gating but stops trusting the report: it
  // runs the sensor-less policy of its granularity. Sensor-less policies
  // never look the port up.
  PolicyKind kind = config_.kind;
  const PortContext* ctx = nullptr;
  if (reads_sensors(kind)) {
    ctx = &context(key);
    kind = acting_kind(*ctx);
  }
  const auto rr_candidate = [&](int n) {
    return static_cast<int>((now / config_.rr_rotation_period) % static_cast<sim::Cycle>(n));
  };
  // View-local VC i's reading from the port's report.
  const auto reading = [&](int i) {
    return ctx->effective_vths[static_cast<std::size_t>(view.global_vc(i))];
  };
  switch (kind) {
    case PolicyKind::kBaseline:
      return noc::GateCommand{};
    case PolicyKind::kRrNoSensor:
      return rr_no_sensor_decide(view, rr_candidate(view.num_vcs()), new_traffic);
    case PolicyKind::kRrSlot: {
      const noc::SharedBufferPool& pool = *view.unit()->pool();
      return rr_slot_decide(pool, rr_candidate(pool.num_slots()), new_traffic);
    }
    case PolicyKind::kSensorWiseNoTraffic:
    case PolicyKind::kSensorWise: {
      // The per-vnet Down_Up comparator: lowest index wins ties, like the
      // sensor bank's comparator tree.
      const int num_vcs = view.num_vcs();
      int most_degraded = 0;
      for (int i = 1; i < num_vcs; ++i)
        if (reading(i) > reading(most_degraded)) most_degraded = i;
      return sensor_wise_decide(view, most_degraded,
                                kind == PolicyKind::kSensorWiseNoTraffic || new_traffic);
    }
    case PolicyKind::kSensorRank:
      degradation_scratch_.resize(static_cast<std::size_t>(view.num_vcs()));
      for (int i = 0; i < view.num_vcs(); ++i)
        degradation_scratch_[static_cast<std::size_t>(i)] = reading(i);
      return sensor_rank_decide(view, degradation_scratch_, new_traffic);
    case PolicyKind::kSensorWiseSlotMd:
      return sensor_wise_slot_decide(*view.unit()->pool(), ctx->effective_vths, new_traffic);
  }
  throw std::logic_error("PolicyGateController::decide: bad kind");
}

void PolicyGateController::post_cycle(sim::Cycle now) {
  const sim::FaultInjector* injector = network_->fault_injector();
  const bool have_injector = injector != nullptr && injector->enabled();
  // Off-epoch, fault-free calls are strict no-ops (refresh_due is false for
  // every port and update() is epoch-gated with no RNG), so an O(1) fence
  // skips the O(ports) walk until the earliest due epoch. With an injector
  // the walk runs every cycle: quarantine dwell stats accrue per cycle.
  if (!have_injector && now < post_cycle_fence_) return;
  // Sensor refresh (epoch-gated inside the bank) from the authoritative
  // stress trackers; this is the Down_Up link update point.
  const double elapsed = network_->clock().seconds_now();
  sim::Cycle fence = sim::kCycleNever;
  for (auto& slot : ports_) {
    if (!slot) continue;
    PortContext& ctx = *slot;
    const noc::PortKey& key = ctx.key;
    const bool epoch = ctx.sensors.refresh_due(now);
    noc::InputUnit& iu = network_->router(key.router).input(key.port);
    // Stress accounting is event-driven: flush this port's lazy intervals
    // through the end of the current cycle before the sensors read the
    // counters, but only at epoch boundaries — update() ignores the
    // trackers otherwise.
    if (epoch) iu.sync_stress(now + 1);
    ctx.sensors.update(now, elapsed, iu.trackers());
    fence = std::min(fence, ctx.sensors.next_refresh_cycle());
    // Down_Up delivery. Targeted plans confine the fault machinery (and its
    // RNG draws) to the ports the plan names — with an empty target list
    // that is all of them; every other port gets its report intact.
    if (!fault_targets(key)) {
      if (epoch) ctx.deliver_intact();
      continue;
    }
    if (epoch) faulted_epoch(key, ctx);
    if (ctx.quarantined) network_->stats().add(h_quarantined_cycles_);
  }
  post_cycle_fence_ = fence;
}

sim::Cycle PolicyGateController::next_event_cycle(sim::Cycle now) {
  // Fault processes advance every cycle (per-cycle stats, RNG draws), so a
  // skip would change the fault stream: pin the horizon to `now`.
  const sim::FaultInjector* injector = network_->fault_injector();
  if (injector != nullptr && injector->enabled()) return now;
  // Otherwise post_cycle only acts at sensor epoch boundaries. The refresh
  // itself must be *stepped* (it reads elapsed time and draws noise RNG at
  // exactly its due cycle), so report the earliest due cycle across ports
  // and let the engine land on it.
  sim::Cycle horizon = sim::kCycleNever;
  for (const auto& ctx : ports_)
    if (ctx) horizon = std::min(horizon, ctx->sensors.next_refresh_cycle());
  return std::max(horizon, now);
}

void PolicyGateController::faulted_epoch(const noc::PortKey& key, PortContext& ctx) {
  sim::StatRegistry& stats = network_->stats();
  const HealthConfig& h = config_.health;
  const int node = static_cast<int>(key.router);
  const int port = static_cast<int>(key.port);
  const int num_vcs = static_cast<int>(ctx.sensors.size());
  sim::FaultInjector& injector = *network_->fault_injector();

  injector.advance_sensor_epoch(node, port, num_vcs);
  const bool delivered = !injector.drop_down_up_report();
  if (delivered) {
    ctx.epochs_since_report = 0;
    for (int v = 0; v < num_vcs; ++v)
      ctx.effective_vths[static_cast<std::size_t>(v)] =
          injector.corrupt_reading(node, port, v, ctx.sensors.measured_vth(static_cast<std::size_t>(v)));
  } else {
    ++ctx.epochs_since_report;
  }

  bool plausible = true;
  for (double v : ctx.effective_vths)
    if (!(v >= h.plausible_min_v && v <= h.plausible_max_v)) {
      plausible = false;
      break;
    }
  // The implausibility streak only advances on delivered reports — a
  // dropped report is the staleness watchdog's evidence, not this one's.
  if (delivered) ctx.implausible_streak = plausible ? 0 : ctx.implausible_streak + 1;

  if (!ctx.quarantined) {
    ctx.healthy_streak = 0;
    if (ctx.epochs_since_report >= h.staleness_epochs ||
        ctx.implausible_streak >= h.implausible_epochs_to_quarantine) {
      ctx.quarantined = true;
      stats.add(h_quarantines_);
    }
  } else if (delivered && plausible) {
    if (++ctx.healthy_streak >= h.healthy_epochs_to_recover) {
      ctx.quarantined = false;
      ctx.healthy_streak = 0;
      ctx.implausible_streak = 0;
      ctx.epochs_since_report = 0;
      stats.add(h_recoveries_);
    }
  } else {
    ctx.healthy_streak = 0;
  }
}

std::size_t PolicyGateController::quarantined_ports() const {
  std::size_t n = 0;
  for (const auto& ctx : ports_) n += ctx && ctx->quarantined ? 1u : 0u;
  return n;
}

double PolicyGateController::effective_vth(const noc::PortKey& key, int vc) const {
  return context(key).effective_vths.at(static_cast<std::size_t>(vc));
}

void PolicyGateController::save(sim::SnapshotWriter& w) const {
  w.u64(num_ports_);
  for (const auto& slot : ports_) {
    if (!slot) continue;
    const PortContext& ctx = *slot;
    ctx.sensors.save(w);
    w.f64_vec(ctx.effective_vths);
    w.b(ctx.quarantined);
    w.i64(ctx.epochs_since_report);
    w.i64(ctx.implausible_streak);
    w.i64(ctx.healthy_streak);
  }
  // Held decisions in (router, port, first VC) order, the index order.
  const auto held_count = std::count_if(held_.begin(), held_.end(),
                                        [](const HeldDecision& h) { return h.valid; });
  w.u64(static_cast<std::uint64_t>(held_count));
  const auto total_vcs = static_cast<std::size_t>(network_->config().total_vcs());
  for (std::size_t i = 0; i < held_.size(); ++i) {
    const HeldDecision& held = held_[i];
    if (!held.valid) continue;
    const std::size_t slot = i / total_vcs;
    w.i64(static_cast<std::int64_t>(slot / static_cast<std::size_t>(ports_per_router_)));
    w.u8(static_cast<std::uint8_t>(slot % static_cast<std::size_t>(ports_per_router_)));
    w.i64(static_cast<std::int64_t>(i % total_vcs));
    noc::snapshot_save(w, held.command);
    w.u64(static_cast<std::uint64_t>(held.held_until));
    w.b(held.valid);
  }
  w.u64(static_cast<std::uint64_t>(post_cycle_fence_));
}

void PolicyGateController::load(sim::SnapshotReader& r) {
  r.expect_u64(num_ports_, "controller port count");
  for (auto& slot : ports_) {
    if (!slot) continue;
    PortContext& ctx = *slot;
    ctx.sensors.load(r);
    ctx.effective_vths = r.f64_vec();
    if (ctx.effective_vths.size() != ctx.initial_vths.size())
      throw sim::SnapshotError("controller: effective-Vth vector length differs from this "
                               "scenario's VC count");
    ctx.quarantined = r.b();
    ctx.epochs_since_report = static_cast<int>(r.i64());
    ctx.implausible_streak = static_cast<int>(r.i64());
    ctx.healthy_streak = static_cast<int>(r.i64());
  }
  std::fill(held_.begin(), held_.end(), HeldDecision{});
  const std::uint64_t held_count = r.u64();
  for (std::uint64_t i = 0; i < held_count; ++i) {
    const std::int64_t router = r.i64();
    const int port = r.u8();
    const std::int64_t first_vc = r.i64();
    HeldDecision held;
    held.command = noc::snapshot_load_gate_command(r);
    held.held_until = static_cast<sim::Cycle>(r.u64());
    held.valid = r.b();
    if (held_.empty() || router < 0 || router >= network_->num_routers() ||
        port >= ports_per_router_ || first_vc < 0 || first_vc >= network_->config().total_vcs())
      throw sim::SnapshotError("controller: held decision for router " + std::to_string(router) +
                               " port " + std::to_string(port) + " VC " +
                               std::to_string(first_vc) + " does not fit this scenario");
    held_[held_index({static_cast<noc::NodeId>(router), static_cast<noc::Dir>(port)},
                     static_cast<int>(first_vc))] = held;
  }
  post_cycle_fence_ = static_cast<sim::Cycle>(r.u64());
}

}  // namespace nbtinoc::core
