#include "nbtinoc/noc/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nbtinoc/noc/fault_routing.hpp"

namespace nbtinoc::noc {

Network::Network(NocConfig config) : config_(config), controller_(&baseline_controller_) {
  config_.validate();
  topo_ = Topology::create(config_);
  const int n = topo_->num_routers();
  const int terminals = topo_->num_terminals();
  const int ports = topo_->ports_per_router();
  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(terminals));
  sources_.resize(static_cast<std::size_t>(terminals));
  for (NodeId id = 0; id < n; ++id)
    routers_.push_back(std::make_unique<Router>(id, config_, stats_, topo_.get()));
  for (NodeId t = 0; t < terminals; ++t)
    nis_.push_back(std::make_unique<NetworkInterface>(t, config_, stats_));

  // Router-to-router links: for every directed neighbor pair, one flit
  // channel downstream and one credit channel upstream.
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const NodeId r = topo_->neighbor(u, dir);
      if (r == kInvalidNode) continue;
      auto flit_link = std::make_unique<Channel<Flit>>(NocConfig::kLinkDelay);
      auto credit_link = std::make_unique<Channel<Credit>>(NocConfig::kCreditDelay);
      // A delivered flit wakes the downstream router; a returning credit
      // wakes the upstream one (active-set push hooks bind by these sinks).
      flit_sinks_.push_back(ChannelSink{false, r});
      credit_sinks_.push_back(ChannelSink{false, u});
      // From the receiver's point of view the sender sits in direction
      // opposite(dir): u's East output feeds r's West input. On wrap links
      // (torus, ring) this holds too — neighbor() is symmetric under
      // opposite(), so each directed port pair is wired exactly once even
      // on 2-wide dimensions where both of u's x-ports face the same r.
      router(r).wire_input(opposite(dir), flit_link.get(), credit_link.get());
      router(u).wire_output(dir, &router(r).input(opposite(dir)), flit_link.get(),
                            credit_link.get());
      flit_channels_.push_back(std::move(flit_link));
      credit_channels_.push_back(std::move(credit_link));
    }
  }

  // NI links: injection (NI -> its router's local input), its credit
  // return, and the ejection channel (router local output -> NI). Each
  // terminal owns one local port of its router.
  for (NodeId t = 0; t < terminals; ++t) {
    const NodeId r = topo_->router_of(t);
    const Dir local = topo_->local_port_of(t);
    auto inject = std::make_unique<Channel<Flit>>(NocConfig::kLinkDelay);
    auto credit = std::make_unique<Channel<Credit>>(NocConfig::kCreditDelay);
    auto eject = std::make_unique<Channel<Flit>>(NocConfig::kLinkDelay);
    router(r).wire_input(local, inject.get(), credit.get());
    router(r).wire_ejection(local, eject.get());
    ni(t).wire(&router(r).input(local), inject.get(), credit.get(), eject.get());
    ni(t).set_topology(topo_.get());
    flit_channels_.push_back(std::move(inject));
    flit_channels_.push_back(std::move(eject));
    credit_channels_.push_back(std::move(credit));
    flit_sinks_.push_back(ChannelSink{false, r});  // injection: wakes the router
    flit_sinks_.push_back(ChannelSink{true, t});   // ejection: wakes the NI
    credit_sinks_.push_back(ChannelSink{true, t});
  }

  // Active-set scheduler state (engaged by set_scheduler_mode).
  active_routers_.resize(n);
  active_nis_.resize(terminals);
  stepped_routers_.resize(n);
  stepped_nis_.resize(terminals);
  for (auto& set : wake_routers_) set.resize(n);
  for (auto& set : wake_nis_) set.resize(terminals);
  wake_heap_.reserve(static_cast<std::size_t>(n) + 4 * static_cast<std::size_t>(terminals));
  pinned_routers_.assign(static_cast<std::size_t>(n), 0);

  gating_record_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(ports) *
                            static_cast<std::size_t>(config_.num_vnets) *
                            static_cast<std::size_t>(config_.vc_classes()),
                        0);
  decided_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(ports), 0);
}

void Network::set_gate_controller(IGateController* controller) {
  controller_ = controller != nullptr ? controller : &baseline_controller_;
  // The gating records are the old controller's: no port is at rest for the
  // new one until it has decided the port once.
  std::fill(decided_.begin(), decided_.end(), 0);
  // Mid-run swap under the active-set scheduler: parked routers sit at the
  // *old* policy's gating fixed point — wake everything so each port
  // re-proves its fixed point against the new policy before re-parking.
  if (scheduler_mode_ == SchedulerMode::kActiveSet) active_routers_.insert_all();
}

void Network::set_traffic_source(NodeId node, std::unique_ptr<ITrafficSource> source) {
  ni(node).set_traffic_source(source.get());
  sources_.at(static_cast<std::size_t>(node)) = std::move(source);
  // Mid-run installation under the active-set scheduler: the NI may be
  // parked on the old source's (or no) horizon — re-activate it so the next
  // retire pass re-parks against the new source's next_event_cycle.
  if (scheduler_mode_ == SchedulerMode::kActiveSet) active_nis_.insert(node);
}

void Network::set_fault_injector(sim::FaultInjector* injector) {
  injector_ = injector;
  refresh_fault_pins();

  // Structural kill schedule: validate, sort (cycle, router, port) so the
  // apply order is deterministic, and cache the first fence cycle.
  structural_events_.clear();
  next_structural_ = 0;
  next_structural_cycle_ = sim::kCycleNever;
  if (injector_ != nullptr && injector_->plan().structural_enabled()) {
    structural_events_ = injector_->plan().structural;
    for (const auto& f : structural_events_) {
      if (f.router < 0 || f.router >= num_routers())
        throw std::invalid_argument("Network: structural fault router out of range");
      if (f.port >= 4)
        throw std::invalid_argument(
            "Network: structural fault port must be a cardinal direction or kWholeRouter");
    }
    std::sort(structural_events_.begin(), structural_events_.end(),
              [](const sim::StructuralFault& a, const sim::StructuralFault& b) {
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                if (a.router != b.router) return a.router < b.router;
                return a.port < b.port;
              });
    next_structural_cycle_ = structural_events_.front().cycle;
  }
}

void Network::refresh_fault_pins() {
  std::fill(pinned_routers_.begin(), pinned_routers_.end(), 0);
  if (injector_ == nullptr || !injector_->plan().control_enabled()) return;
  const int ports = config_.ports_per_router();
  for (NodeId id = 0; id < num_routers(); ++id) {
    for (int p = 0; p < ports; ++p) {
      if (!router(id).has_input(static_cast<Dir>(p))) continue;
      if (!injector_->plan().targets_port(id, p)) continue;
      // Every fault process at this router (gate-command draws, wake-fail
      // draws, the controller's per-epoch sensor machinery) must run at its
      // stepped-schedule position, so the router can never park.
      pinned_routers_[static_cast<std::size_t>(id)] = 1;
      if (scheduler_mode_ == SchedulerMode::kActiveSet) active_routers_.insert(id);
      break;
    }
  }
}

sim::FaultInjector* Network::injector_for(NodeId id, Dir port) const {
  // A structural-only plan draws no control RNG anywhere: its kills are
  // fixed-cycle events the schedulers fence on instead.
  if (injector_ == nullptr || !injector_->plan().control_enabled()) return nullptr;
  return injector_->plan().targets_port(id, static_cast<int>(port)) ? injector_ : nullptr;
}

void Network::deliver_gate_command(InputUnit& iu, GateCommand cmd, sim::Cycle now,
                                   sim::FaultInjector* faults) {
  if (faults != nullptr) {
    if (faults->drop_gate_command()) return;  // lost: the port holds its state
    int shift = 0;
    if (const SharedBufferPool* pool = iu.pool()) {
      const int slots = pool->num_slots();
      if (faults->flip_gate_command(slots, &shift)) {
        // Slot-form corruption: the wake target rotates across the pool (or
        // a spurious wake appears); the apply tolerates targets in the wrong
        // state, so corruption degrades gracefully.
        cmd.enable = true;
        cmd.keep_vc = cmd.keep_vc == kInvalidVc ? shift : (cmd.keep_vc + shift) % slots;
      }
    } else if (faults->flip_gate_command(cmd.range_vcs, &shift)) {
      // Corrupt the command but keep it well-formed for its vnet range: a
      // valid keep_vc rotates within the range; a command that kept nothing
      // awake gains a spurious enable on an arbitrary range VC.
      if (cmd.enable && cmd.keep_vc != kInvalidVc) {
        cmd.keep_vc = cmd.first_vc + (cmd.keep_vc - cmd.first_vc + shift) % cmd.range_vcs;
      } else {
        cmd.gating_active = true;
        cmd.enable = true;
        cmd.keep_vc = cmd.first_vc + shift;
      }
    }
  }
  iu.apply_gate_command(cmd, now, faults);
}

void Network::gating_stage() {
  const sim::Cycle now = clock_.now();
  for (NodeId id = 0; id < num_routers(); ++id) gating_stage_for(id, now);
}

void Network::gating_stage_for(NodeId id, sim::Cycle now) {
  const int ports = config_.ports_per_router();
  const int num_classes = config_.vc_classes();
  Router& r = router(id);
  if (r.dead()) return;  // structurally killed: no gating, no commands
  const bool holds = controller_->holds_decisions();
  for (int p = 0; p < ports; ++p) {
    const Dir port = static_cast<Dir>(p);
    if (!r.has_input(port) || r.input_port_dead(port)) continue;
    sim::FaultInjector* port_injector = injector_for(id, port);
    // A port at rest: every policy would return the command that changes
    // nothing (ARCHITECTURE.md §10), the controller keeps no state the call
    // would move, and no fault RNG draw is due — skip decide and delivery.
    unsigned char& decided = decided_[port_index(id, port)];
    if (decided != 0 && !holds && port_injector == nullptr && port_gating_fixed_point(id, port) &&
        !new_traffic_toward(id, port, now))
      continue;
    decided = 1;
    if (config_.shared_buffers()) {
      // Shared organization: gating is slot-granular and the pool is one
      // physical resource, so the pre-VA policy decides once per *port*
      // (whole-port traffic signal, whole-port view). Per-(vnet, class)
      // isolation is preserved structurally instead: every VC keeps its
      // reserved slots powered (invariant M*), so an escape class can
      // always make progress no matter which slots the policy gates.
      const bool new_traffic = new_traffic_toward(id, port, now);
      const OutVcStateView view(&r.input(port));
      // Slot indices are pool-absolute: no rebase.
      const GateCommand cmd = controller_->decide(PortKey{id, port}, view, new_traffic, now);
      const unsigned char active = cmd.gating_active ? 1 : 0;
      for (int vn = 0; vn < config_.num_vnets; ++vn)
        for (int cls = 0; cls < num_classes; ++cls)
          gating_record_[gating_record_index(id, port, vn, cls)] = active;
      deliver_gate_command(r.input(port), cmd, now, port_injector);
      continue;
    }
    // One pre-VA decision per (virtual network, dateline class): each
    // class's VC subrange is managed exactly like the paper's
    // single-vnet case. The split matters for deadlock freedom — a
    // sensor-wise policy keeping only one VC awake per decision must
    // keep one *per class*, or a packet needing the other class would
    // wait forever behind a traffic signal that never fires for it.
    // Single-class topologies run the class loop once over the whole
    // vnet, reproducing the pre-topology decision sequence exactly.
    for (int vn = 0; vn < config_.num_vnets; ++vn) {
      for (int cls = 0; cls < num_classes; ++cls) {
        bool new_traffic = false;
        if (is_local(port)) {
          new_traffic = ni(topo_->terminal_of(id, local_slot(port))).has_new_traffic(vn, cls, now);
        } else {
          const NodeId upstream = topo_->neighbor(id, port);
          new_traffic = router(upstream).has_new_traffic_toward(opposite(port), vn, cls, now);
        }
        const int first = config_.first_vc_of_vnet(vn) + config_.class_first_vc(cls);
        const OutVcStateView view(&r.input(port), first, config_.class_num_vcs(cls));
        GateCommand cmd = controller_->decide(PortKey{id, port}, view, new_traffic, now);
        if (cmd.keep_vc != kInvalidVc) cmd.keep_vc += first;  // local -> global
        cmd.first_vc = first;
        cmd.range_vcs = config_.class_num_vcs(cls);
        gating_record_[gating_record_index(id, port, vn, cls)] = cmd.gating_active ? 1 : 0;
        deliver_gate_command(r.input(port), cmd, now, port_injector);
      }
    }
  }
}

void Network::step() {
  if (scheduler_mode_ == SchedulerMode::kActiveSet) {
    step_active(sim::kCycleNever);
    return;
  }
  const sim::Cycle now = clock_.now();
  if (now >= next_structural_cycle_) apply_structural_faults(now);
  gating_stage();
  for (auto& r : routers_) r->va_stage(now);
  for (auto& r : routers_) r->sa_st_stage(now);
  for (auto& r : routers_) r->accept_arrivals(now);
  for (auto& ni : nis_) ni->receive(now);
  for (auto& ni : nis_) {
    ni->inject(now, packet_id_counter_);
    ni->generate(now);
  }
  // NBTI accounting is event-driven: buffers notified their trackers at
  // gate/wake transitions during this cycle; nothing to walk here. Readers
  // fence via sync_stress_accounting() (run(), the warmup fence, the duty
  // accessors) or per-port sync_stress() (the controller's sensor epochs).
  controller_->post_cycle(now);
  clock_.tick();
}

void Network::run(sim::Cycle cycles) {
  const sim::Cycle end = clock_.now() + cycles;
  if (scheduler_mode_ == SchedulerMode::kActiveSet) {
    while (clock_.now() < end) {
      drain_wakes(clock_.now());
      // Full park: with nothing active now, nothing scheduled for the next
      // cycle, and retire having left the far ring slot empty, the only
      // possible events are heap wakes, controller epochs and structural
      // kills — jump to the earliest (clamped to this run's end fence). The
      // stress trackers are lazy (note_state/sync), so the skipped span
      // accrues to each buffer's unchanged state at the next fence — exactly
      // what stepping the same span would have recorded.
      if (active_routers_.empty() && active_nis_.empty() && wake_routers_[0].empty() &&
          wake_nis_[0].empty()) {
        const sim::Cycle now = clock_.now();
        sim::EventHorizon horizon(now);
        horizon.consider(controller_->next_event_cycle(now));
        horizon.consider(wake_heap_.top_cycle());
        horizon.consider(next_structural_cycle_);  // never jump across a kill
        const sim::Cycle target = std::min(horizon.horizon(), end);
        if (target > now) {
          skip_stats_.note_skip(target - now);
          clock_.advance(target - now);
          continue;  // re-drain heap wakes due at the landing cycle
        }
        // Horizon pinned at now (e.g. a sensor epoch due this cycle):
        // execute it — with empty active sets that is post_cycle + tick.
      }
      step_active(end);
    }
    sync_stress_accounting();
    return;
  }
  while (clock_.now() < end) step();
  // One O(buffers) flush per run() call, so counters are current for any
  // reader that inspects trackers directly after the call.
  sync_stress_accounting();
}

void Network::set_scheduler_mode(SchedulerMode mode) {
  if (mode == scheduler_mode_) return;
  scheduler_mode_ = mode;
  if (mode == SchedulerMode::kStepped) {
    remove_push_hooks();
    return;
  }
  install_push_hooks();
  // Everything starts live; the first retire pass parks what it can.
  active_routers_.insert_all();
  active_nis_.insert_all();
  for (auto& set : wake_routers_) set.clear();
  for (auto& set : wake_nis_) set.clear();
  wake_heap_.clear();
  refresh_fault_pins();
}

void Network::install_push_hooks() {
  for (std::size_t i = 0; i < flit_channels_.size(); ++i) {
    const ChannelSink sink = flit_sinks_[i];
    flit_channels_[i]->set_push_hook([this, sink](sim::Cycle ready_at) {
      if (sink.is_ni)
        wake_ni_at(sink.id, ready_at);
      else
        wake_router_at(sink.id, ready_at);
    });
  }
  for (std::size_t i = 0; i < credit_channels_.size(); ++i) {
    const ChannelSink sink = credit_sinks_[i];
    credit_channels_[i]->set_push_hook([this, sink](sim::Cycle ready_at) {
      if (sink.is_ni)
        wake_ni_at(sink.id, ready_at);
      else
        wake_router_at(sink.id, ready_at);
    });
  }
}

void Network::remove_push_hooks() {
  for (auto& link : flit_channels_) link->set_push_hook({});
  for (auto& link : credit_channels_) link->set_push_hook({});
}

void Network::wake_router_at(NodeId id, sim::Cycle at) {
  const sim::Cycle now = clock_.now();
  if (at <= now + 1)
    wake_routers_[0].insert(id);
  else if (at == now + 2)
    wake_routers_[1].insert(id);
  else
    wake_heap_.push(at, id);
}

void Network::wake_ni_at(NodeId t, sim::Cycle at) {
  const sim::Cycle now = clock_.now();
  if (at <= now + 1)
    wake_nis_[0].insert(t);
  else if (at == now + 2)
    wake_nis_[1].insert(t);
  else
    wake_heap_.push(at, num_routers() + t);
}

void Network::wake_terminal_at(NodeId t, sim::Cycle at) {
  if (scheduler_mode_ != SchedulerMode::kActiveSet) return;
  wake_ni_at(t, std::max(at, clock_.now() + 1));
}

void Network::drain_wakes(sim::Cycle now) {
  while (!wake_heap_.empty() && wake_heap_.top_cycle() <= now) {
    const sim::WakeEvent ev = wake_heap_.pop();
    if (ev.id < num_routers())
      active_routers_.insert(ev.id);
    else
      active_nis_.insert(ev.id - num_routers());
  }
}

void Network::step_active(sim::Cycle end) {
  const sim::Cycle now = clock_.now();
  if (now >= next_structural_cycle_) apply_structural_faults(now);
  drain_wakes(now);
  stepped_routers_.assign(active_routers_);
  stepped_nis_.assign(active_nis_);
  scheduler_stats_.cycles_executed += 1;
  scheduler_stats_.router_steps += static_cast<std::uint64_t>(active_routers_.count());
  scheduler_stats_.ni_steps += static_cast<std::uint64_t>(active_nis_.count());
  // Same stage order as step(), restricted to active members; ascending-id
  // iteration keeps every RNG draw, arbiter rotation, and stat bump at its
  // stepped-schedule position. Push hooks fired inside these loops only
  // write the wake ring / heap, never the sets being iterated.
  active_routers_.for_each([&](int id) { gating_stage_for(id, now); });
  active_routers_.for_each([&](int id) { routers_[static_cast<std::size_t>(id)]->va_stage(now); });
  active_routers_.for_each(
      [&](int id) { routers_[static_cast<std::size_t>(id)]->sa_st_stage(now); });
  active_routers_.for_each(
      [&](int id) { routers_[static_cast<std::size_t>(id)]->accept_arrivals(now); });
  active_nis_.for_each([&](int t) { nis_[static_cast<std::size_t>(t)]->receive(now); });
  active_nis_.for_each([&](int t) {
    nis_[static_cast<std::size_t>(t)]->inject(now, packet_id_counter_);
    nis_[static_cast<std::size_t>(t)]->generate(now);
  });
  // The controller runs on every *executed* cycle, exactly as in stepped
  // mode — jumps never cross a sensor epoch (next_event_cycle fences them).
  controller_->post_cycle(now);
  retire_active_cycle(now, end);
  clock_.tick();
}

void Network::retire_active_cycle(sim::Cycle now, sim::Cycle end) {
  active_routers_.for_each([&](int id) {
    Router& r = *routers_[static_cast<std::size_t>(id)];
    if (r.any_busy_input()) {
      // A busy router's waiting flits are the new-traffic signal of every
      // neighbor's gating stage, and its VA stage allocates directly into
      // downstream input VCs — keep it and its neighbors live. The flood
      // stops one hop out: woken-but-flitless neighbors park again at
      // their own retire.
      wake_routers_[0].insert(id);
      for (int d = 0; d < 4; ++d) {
        const NodeId nb = topo_->neighbor(id, static_cast<Dir>(d));
        if (nb != kInvalidNode) wake_routers_[0].insert(nb);
      }
      return;
    }
    if (pinned_routers_[static_cast<std::size_t>(id)] != 0 || !router_park_eligible(id))
      wake_routers_[0].insert(id);
  });
  active_nis_.for_each([&](int t) {
    NetworkInterface& terminal = *nis_[static_cast<std::size_t>(t)];
    // A dead tile parks forever: its source is never polled again (in any
    // scheduler mode), so no heap wake may keep re-activating it.
    if (terminal.dead()) return;
    if (!terminal.idle()) {
      // A non-idle NI asserts has_new_traffic for — and allocates VCs of —
      // its router's local input port: both must stay live.
      wake_nis_[0].insert(t);
      wake_routers_[0].insert(topo_->router_of(t));
      return;
    }
    // On a segment's last cycle an idle NI stays active rather than
    // pre-rolling its source's draws for a horizon the segment never
    // reaches; stepping it is the reference, and the next segment's first
    // retire parks it.
    if (!terminal.inbound_links_quiet() || now + 1 >= end) {
      wake_nis_[0].insert(t);
      return;
    }
    // Park with a heap wake at the source's next event. Horizons may be
    // conservative (pre-roll windows): the landing step finds nothing to
    // do, re-asks, and re-parks — never overshoots a real fire.
    ITrafficSource* src = sources_[static_cast<std::size_t>(t)].get();
    if (src != nullptr) {
      const sim::Cycle h = src->next_event_cycle(now + 1);
      if (h != sim::kCycleNever) wake_heap_.push(std::max(h, now + 1), num_routers() + t);
    }
  });
  // Rotate the wake ring into place: wakes for now+1 become the next active
  // sets; the far slot (now+2) moves near; the far slot starts empty.
  active_routers_.swap(wake_routers_[0]);
  wake_routers_[0].clear();
  wake_routers_[0].swap(wake_routers_[1]);
  active_nis_.swap(wake_nis_[0]);
  wake_nis_[0].clear();
  wake_nis_[0].swap(wake_nis_[1]);
}

bool Network::router_park_eligible(NodeId id) const {
  const Router& r = *routers_[static_cast<std::size_t>(id)];
  if (!r.inbound_links_quiet()) return false;
  return router_gating_fixed_point(id);
}

bool Network::router_gating_fixed_point(NodeId id) const {
  const Router& r = *routers_[static_cast<std::size_t>(id)];
  // Dead resources are quarantined, not gated: they hold no work, receive
  // no commands, and must not block parking.
  if (r.dead()) return true;
  for (int p = 0; p < r.num_ports(); ++p) {
    const Dir port = static_cast<Dir>(p);
    if (!r.has_input(port) || r.input_port_dead(port)) continue;
    if (!port_gating_fixed_point(id, port)) return false;
  }
  return true;
}

bool Network::port_gating_fixed_point(NodeId id, Dir port) const {
  const InputUnit& iu = routers_[static_cast<std::size_t>(id)]->input(port);
  if (iu.busy_vcs() != 0) return false;
  // Every (vnet, class) of the port must sit in the *same* fixed point of
  // its last applied command. Under an active gating record that is
  // all-VCs-gated (a kept-awake or wake-window VC would be re-gated on a
  // later cycle — an event); under the baseline it is all-idle with
  // nothing gated (a gated VC would need a wake — also an event). Every
  // policy's decide() is a no-op on such a port while no traffic heads
  // toward it (ARCHITECTURE.md §10), which is what makes skipping the
  // decide call bit-exact. The port's records are contiguous.
  const std::size_t first = gating_record_index(id, port, 0, 0);
  const std::size_t records =
      static_cast<std::size_t>(config_.num_vnets) * static_cast<std::size_t>(config_.vc_classes());
  const bool active = gating_record_[first] != 0;
  for (std::size_t i = 1; i < records; ++i)
    if ((gating_record_[first + i] != 0) != active) return false;
  if (!iu.gating_fixed_point(active, config_.total_vcs())) return false;
  // Credit pressure makes the slot policies wake a gated slot with no
  // traffic bit set.
  const SharedBufferPool* pool = iu.pool();
  return !active || pool == nullptr || !pool->credit_starved();
}

bool Network::new_traffic_toward(NodeId id, Dir port, sim::Cycle now) const {
  if (is_local(port)) return ni(topo_->terminal_of(id, local_slot(port))).has_new_traffic(now);
  return router(topo_->neighbor(id, port)).has_new_traffic_toward(opposite(port), now);
}

void Network::run_with_warmup(sim::Cycle warmup, sim::Cycle measure) {
  set_measuring(false);
  run(warmup);
  // Counters and distributions restart with the measurement window so that
  // dynamic-energy/latency statistics cover the same cycles as the NBTI
  // stress trackers.
  stats_.reset();
  set_measuring(true);
  run(measure);
}

void Network::sync_stress_accounting() const {
  const sim::Cycle through = clock_.now();
  // routers_ holds unique_ptrs: the pointees are mutable from a const
  // member, which is exactly what a lazy-flush fence needs.
  for (const auto& r : routers_) r->sync_stress(through);
}

void Network::set_measuring(bool measuring) {
  // Flush first: the fence applies to cycles by when they elapsed, and any
  // still-lazy interval predates this toggle.
  sync_stress_accounting();
  for (auto& r : routers_) {
    for (int p = 0; p < r->num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (r->has_input(port)) r->input(port).trackers().set_measuring(measuring);
    }
  }
}

std::vector<double> Network::duty_cycles_percent(NodeId node, Dir input_port) const {
  sync_stress_accounting();
  const Router& r = router(node);
  if (!r.has_input(input_port))
    throw std::invalid_argument("Network::duty_cycles_percent: port does not exist");
  return r.input(input_port).trackers().duty_cycles_percent();
}

std::size_t Network::flits_in_flight() const {
  std::size_t n = 0;
  for (const auto& link : flit_channels_) n += link->in_flight();
  return n;
}

std::size_t Network::flits_resident() const {
  std::size_t n = flits_in_flight();
  for (const auto& r : routers_) {
    for (int p = 0; p < r->num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r->has_input(port)) continue;
      for (int v = 0; v < config_.total_vcs(); ++v)
        n += static_cast<std::size_t>(r->input(port).vc(v).occupancy());
    }
  }
  return n;
}

void Network::apply_structural_faults(sim::Cycle now) {
  bool any = false;
  while (next_structural_ < structural_events_.size() &&
         structural_events_[next_structural_].cycle <= now) {
    const sim::StructuralFault& f = structural_events_[next_structural_];
    ++next_structural_;
    bool changed = false;
    if (f.kills_router()) {
      changed = topo_->kill_router(f.router);
      if (changed && injector_ != nullptr) injector_->count_router_kill();
    } else {
      changed = topo_->kill_link(f.router, static_cast<Dir>(f.port));
      if (changed && injector_ != nullptr) injector_->count_link_kill();
    }
    if (changed) {
      if (injector_ != nullptr) injector_->count_route_regen();
      any = true;
    }
  }
  next_structural_cycle_ = next_structural_ < structural_events_.size()
                               ? structural_events_[next_structural_].cycle
                               : sim::kCycleNever;
  // One drain covers every kill that landed this cycle: the topology has
  // already regenerated its tables, so legality below is judged against the
  // final orientation.
  if (any) purge_after_kill(now);
}

void Network::purge_after_kill(sim::Cycle now) {
  const DegradedRouting* dr = topo_->degraded_routing();
  const int n = num_routers();
  const int terminals = nodes();
  const int total_vcs = config_.total_vcs();

  // --- 1. destination of every live packet -----------------------------------
  // Every packet not yet fully ejected has at least one flit somewhere (a
  // channel, a VC buffer) or is still being serialized by its NI — and every
  // flit carries dst. Empty-but-Active VCs (allocation made, head still
  // upstream) resolve through this map.
  std::unordered_map<PacketId, NodeId> dst_of;
  for (const auto& link : flit_channels_)
    link->for_each_in_flight([&](const Flit& f, sim::Cycle) { dst_of[f.packet] = f.dst; });
  for (NodeId id = 0; id < n; ++id) {
    Router& r = router(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      for (int v = 0; v < total_vcs; ++v) {
        const VcBuffer& vc = r.input(port).vc(v);
        if (!vc.empty()) dst_of[vc.packet()] = vc.front().dst;
      }
    }
  }
  for (const auto& term : nis_)
    if (term->sending()) dst_of[term->sending_packet()] = term->sending_dst();

  // --- 2. doom every packet whose position or committed move is illegal ------
  // Legality under the regenerated up*/down* orientation:
  //   - destination terminal alive and route-table reachable from here;
  //   - a residence fed by a down link is in the down phase: the packet's
  //     next move must be down, into the down region D(dst) — once down,
  //     never up again (the rank argument in fault_routing.hpp);
  //   - a committed down move (from any input) must land inside D(dst),
  //     where the regenerated table continues pure-down;
  //   - anything committed toward a dead link/port/router is stuck forever.
  // A packet is purged whole (every flit, everywhere) if ANY of its
  // residences or in-flight segments violates a rule — wormhole body flits
  // retrace the head's path, so partial purges would strand segments.
  std::unordered_set<PacketId> doomed;
  const auto reachable_from = [&](NodeId at, NodeId dst_t) {
    return topo_->terminal_alive(dst_t) && topo_->route(at, dst_t).reachable();
  };
  const auto down_ok = [&](NodeId w, NodeId dst_t) {
    return dr->in_down_region(w, topo_->router_of(dst_t));
  };

  // In-flight flits on router-router links.
  for (NodeId u = 0; u < n; ++u) {
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      Channel<Flit>* link = router(u).flit_out_link_mut(dir);
      if (link == nullptr) continue;
      if (!topo_->link_alive(u, dir)) {
        link->for_each_in_flight([&](const Flit& f, sim::Cycle) { doomed.insert(f.packet); });
        continue;
      }
      const NodeId v = topo_->neighbor(u, dir);
      const bool down = dr->move_is_down(u, v);
      link->for_each_in_flight([&](const Flit& f, sim::Cycle) {
        if (!reachable_from(v, f.dst) || (down && !down_ok(v, f.dst))) doomed.insert(f.packet);
      });
    }
  }

  // NI-side channels and serialization state.
  for (NodeId t = 0; t < terminals; ++t) {
    NetworkInterface& term = ni(t);
    const NodeId r = topo_->router_of(t);
    const Dir local = topo_->local_port_of(t);
    Channel<Flit>* inj = router(r).flit_in_link_mut(local);
    Channel<Flit>* ej = router(r).eject_out_link_mut(local);
    if (!topo_->terminal_alive(t)) {
      inj->for_each_in_flight([&](const Flit& f, sim::Cycle) { doomed.insert(f.packet); });
      ej->for_each_in_flight([&](const Flit& f, sim::Cycle) { doomed.insert(f.packet); });
      if (term.sending()) doomed.insert(term.sending_packet());
      continue;
    }
    inj->for_each_in_flight([&](const Flit& f, sim::Cycle) {
      if (!reachable_from(r, f.dst)) doomed.insert(f.packet);
    });
    // Ejection flits are home; a mid-serialization packet dies with its dst.
    if (term.sending() && !reachable_from(r, term.sending_dst()))
      doomed.insert(term.sending_packet());
  }

  // Resident packets in VC buffers (head waiting, or body streaming behind a
  // committed move).
  for (NodeId id = 0; id < n; ++id) {
    Router& r = router(id);
    const bool router_dead_now = !topo_->router_alive(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const bool port_dead =
          router_dead_now || (!is_local(port) && !topo_->link_alive(id, port));
      InputUnit& iu = r.input(port);
      for (int v = 0; v < total_vcs; ++v) {
        const VcBuffer& vc = iu.vc(v);
        if (!vc.is_active()) continue;
        const PacketId pkt = vc.packet();
        if (port_dead) {
          doomed.insert(pkt);
          continue;
        }
        const auto it = dst_of.find(pkt);
        if (it == dst_of.end()) {  // untracked allocation: cannot complete
          doomed.insert(pkt);
          continue;
        }
        const NodeId dst = it->second;
        if (!reachable_from(id, dst)) {
          doomed.insert(pkt);
          continue;
        }
        const bool arrived_down =
            !is_local(port) && dr->move_is_down(topo_->neighbor(id, port), id);
        if (iu.has_output(v)) {
          const Dir m = iu.out_port(v);
          if (is_local(m)) {
            if (topo_->router_of(dst) != id) doomed.insert(pkt);
            continue;
          }
          const NodeId w = topo_->alive_neighbor(id, m);
          if (w == kInvalidNode) {  // committed toward a dead resource
            doomed.insert(pkt);
            continue;
          }
          const bool move_down = dr->move_is_down(id, w);
          if ((arrived_down && !move_down) || (move_down && !down_ok(w, dst)))
            doomed.insert(pkt);
        } else if (arrived_down && !down_ok(id, dst)) {
          doomed.insert(pkt);
        }
      }
    }
  }

  // --- 3. purge the doomed packets everywhere --------------------------------
  const std::uint64_t purged_packets = static_cast<std::uint64_t>(doomed.size());
  std::uint64_t dropped = 0;
  for (auto& link : flit_channels_)
    dropped += static_cast<std::uint64_t>(
        link->remove_if([&](const Flit& f) { return doomed.count(f.packet) != 0; }));
  for (NodeId id = 0; id < n; ++id) {
    Router& r = router(id);
    const bool router_dead_now = !topo_->router_alive(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const bool port_dead =
          router_dead_now || (!is_local(port) && !topo_->link_alive(id, port));
      InputUnit& iu = r.input(port);
      for (int v = 0; v < total_vcs; ++v)
        if (iu.vc(v).is_active() && (port_dead || doomed.count(iu.vc(v).packet()) != 0))
          dropped += static_cast<std::uint64_t>(iu.purge_vc(v));
    }
    r.invalidate_va_matrix();
  }
  for (auto& term : nis_) {
    if (!topo_->terminal_alive(term->node())) {
      if (!term->dead()) term->mark_dead();
      continue;
    }
    if (term->sending() && doomed.count(term->sending_packet()) != 0) term->cancel_sending();
    term->drop_queued_unroutable();  // counts fault.unroutable_packets itself
  }
  dropped_flits_total_ += dropped;
  if (injector_ != nullptr) {
    injector_->count_dropped_flits(dropped);
    injector_->count_purged_packets(purged_packets);
  }

  // --- 4. quarantine dead resources ------------------------------------------
  // Dead credit channels must be emptied too: nothing will ever pop them,
  // and a stranded credit would keep a neighbor from parking forever.
  for (NodeId id = 0; id < n; ++id) {
    Router& r = router(id);
    const bool router_dead_now = !topo_->router_alive(id);
    if (router_dead_now && !r.dead()) r.mark_dead();
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const bool port_dead =
          router_dead_now || (!is_local(port) && !topo_->link_alive(id, port));
      if (!port_dead) continue;
      r.mark_input_port_dead(port);
      if (Channel<Credit>* c = r.credit_out_link_mut(port)) c->clear();
    }
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      if (router_dead_now || (r.has_output(dir) && !topo_->link_alive(id, dir)))
        if (Channel<Credit>* c = r.credit_in_link_mut(dir)) c->clear();
    }
  }

  // --- 5. rewrite every surviving credit counter from the identity -----------
  restore_credits();

  // --- 6. re-run RC for waiting heads against the regenerated tables ---------
  for (auto& r : routers_)
    if (!r->dead()) r->reroute_waiting_heads(now);

  // --- 7. audit: the regenerated routing must be deadlock-free ---------------
  std::string diag;
  if (!route_cdg_acyclic(*topo_, &diag))
    throw std::logic_error("Network: regenerated routing CDG has a cycle: " + diag);

  // --- 8. active-set mode: the world changed — wake everything ---------------
  // Components with no work re-park at the next retire pass; a stale park
  // decision made against the pre-kill fabric must not survive.
  if (scheduler_mode_ == SchedulerMode::kActiveSet) {
    active_routers_.insert_all();
    active_nis_.insert_all();
  }
}

void Network::restore_credits() {
  const int total_vcs = config_.total_vcs();
  std::vector<int> accounted(static_cast<std::size_t>(total_vcs));
  for (NodeId u = 0; u < num_routers(); ++u) {
    Router& ru = router(u);
    if (ru.dead()) continue;
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      if (!ru.has_output(dir)) continue;
      OutputUnit& out = ru.output(dir);
      if (!topo_->link_alive(u, dir)) {
        // Dead output: zero credits, so not even a latent bug can push a
        // flit into the cleared channel. Under a shared pool the equivalent
        // block is charging every VC to full depth: charged >= reserve
        // closes the reserved path and overcommit == shared_capacity >=
        // shared_limit closes the shared one, so can_send() is false for
        // every VC forever.
        for (int v = 0; v < total_vcs; ++v) out.set_credits(v, 0);
        if (SharedBufferPool* pool = router(topo_->neighbor(u, dir)).input(opposite(dir)).pool())
          for (int v = 0; v < total_vcs; ++v) pool->set_charged(v, config_.buffer_depth);
        continue;
      }
      const NodeId w = topo_->neighbor(u, dir);
      std::fill(accounted.begin(), accounted.end(), 0);
      ru.flit_out_link_mut(dir)->for_each_in_flight(
          [&](const Flit& f, sim::Cycle) { ++accounted[static_cast<std::size_t>(f.vc)]; });
      ru.credit_in_link_mut(dir)->for_each_in_flight(
          [&](const Credit& c, sim::Cycle) { ++accounted[static_cast<std::size_t>(c.vc)]; });
      InputUnit& diu = router(w).input(opposite(dir));
      if (SharedBufferPool* pool = diu.pool()) {
        // Same identity, pool-resident form: everything the upstream ever
        // charged for VC v that has not yet been credited back is either
        // in flight on the two links or resident in the VC's slot chain.
        for (int v = 0; v < total_vcs; ++v)
          pool->set_charged(v, accounted[static_cast<std::size_t>(v)] + diu.vc(v).occupancy());
        continue;
      }
      for (int v = 0; v < total_vcs; ++v)
        out.set_credits(v, config_.buffer_depth - accounted[static_cast<std::size_t>(v)] -
                               diu.vc(v).occupancy());
    }
  }
  for (auto& term : nis_) {
    if (term->dead()) continue;
    const NodeId r = topo_->router_of(term->node());
    const Dir local = topo_->local_port_of(term->node());
    std::fill(accounted.begin(), accounted.end(), 0);
    term->inject_link()->for_each_in_flight(
        [&](const Flit& f, sim::Cycle) { ++accounted[static_cast<std::size_t>(f.vc)]; });
    term->credit_link()->for_each_in_flight(
        [&](const Credit& c, sim::Cycle) { ++accounted[static_cast<std::size_t>(c.vc)]; });
    const InputUnit& iu = router(r).input(local);
    if (SharedBufferPool* pool = term->shared_pool()) {
      for (int v = 0; v < total_vcs; ++v)
        pool->set_charged(v, accounted[static_cast<std::size_t>(v)] + iu.vc(v).occupancy());
      continue;
    }
    for (int v = 0; v < total_vcs; ++v)
      term->set_credits(v, config_.buffer_depth - accounted[static_cast<std::size_t>(v)] -
                               iu.vc(v).occupancy());
  }
}

void Network::save_state(sim::SnapshotWriter& w) const {
  // Dynamic state only: everything derivable from NocConfig + wiring
  // (topology, channel graph, route tables before kills) is rebuilt by the
  // loader's own construction and checked against the config digest.
  w.u64(static_cast<std::uint64_t>(clock_.now()));
  stats_.save(w);

  w.u64(gating_record_.size());
  for (unsigned char g : gating_record_) w.u8(g);

  // Structural-kill cursor. The events themselves are re-installed from the
  // (identical) FaultPlan; only progress through them is dynamic.
  w.u64(next_structural_);
  w.u64(static_cast<std::uint64_t>(next_structural_cycle_));
  w.u64(dropped_flits_total_);
  w.u64(packet_id_counter_);

  for (const auto& r : routers_) r->save(w);
  for (const auto& term : nis_) term->save(w);

  const auto save_flit = [](sim::SnapshotWriter& out, const Flit& f) { snapshot_save(out, f); };
  const auto save_credit = [](sim::SnapshotWriter& out, const Credit& c) {
    snapshot_save(out, c);
  };
  w.u64(flit_channels_.size());
  for (const auto& link : flit_channels_) link->save(w, save_flit);
  w.u64(credit_channels_.size());
  for (const auto& link : credit_channels_) link->save(w, save_credit);

  for (const auto& source : sources_) {
    w.b(source != nullptr);
    if (source) source->save(w);
  }

  if (injector_ != nullptr) injector_->save(w);
}

void Network::load_state(sim::SnapshotReader& r) {
  if (scheduler_mode_ != SchedulerMode::kStepped)
    throw sim::SnapshotError(
        "Network::load_state: restore before set_scheduler_mode (loading rebuilds channel "
        "queues underneath the active-set push hooks)");

  const auto now = static_cast<sim::Cycle>(r.u64());
  clock_.reset();
  clock_.advance(now);
  stats_.load(r);

  r.expect_u64(gating_record_.size(), "gating-record size");
  for (unsigned char& g : gating_record_) g = r.u8();
  // Whoever decided before the snapshot, every port re-decides once.
  std::fill(decided_.begin(), decided_.end(), 0);

  next_structural_ = r.u64();
  next_structural_cycle_ = static_cast<sim::Cycle>(r.u64());
  dropped_flits_total_ = r.u64();
  packet_id_counter_ = r.u64();
  if (next_structural_ > structural_events_.size())
    throw sim::SnapshotError(
        "snapshot was taken under a fault plan with more structural events than this "
        "scenario's (" +
        std::to_string(next_structural_) + " applied > " +
        std::to_string(structural_events_.size()) + " scheduled)");
  // Re-apply already-landed kills to the fresh topology. Only the topology
  // mutation (alive flags + route-table regeneration) is needed: the drained
  // buffers, cleared channels, dead flags and rewritten credits all arrive
  // with the serialized component state below.
  for (std::size_t i = 0; i < next_structural_; ++i) {
    const sim::StructuralFault& f = structural_events_[i];
    if (f.kills_router())
      topo_->kill_router(f.router);
    else
      topo_->kill_link(f.router, static_cast<Dir>(f.port));
  }

  for (auto& rt : routers_) rt->load(r);
  for (auto& term : nis_) term->load(r);

  const auto load_flit = [](sim::SnapshotReader& in) { return snapshot_load_flit(in); };
  const auto load_credit = [](sim::SnapshotReader& in) { return snapshot_load_credit(in); };
  r.expect_u64(flit_channels_.size(), "flit-channel count");
  for (auto& link : flit_channels_) link->load(r, load_flit);
  r.expect_u64(credit_channels_.size(), "credit-channel count");
  for (auto& link : credit_channels_) link->load(r, load_credit);

  for (std::size_t t = 0; t < sources_.size(); ++t) {
    const bool present = r.b();
    if (present != (sources_[t] != nullptr))
      throw sim::SnapshotError("traffic-source layout differs from the snapshot at node " +
                               std::to_string(t) +
                               " (install the same workload before loading)");
    if (present) sources_[t]->load(r);
  }

  if (injector_ != nullptr) injector_->load(r);
}

bool Network::drained() const {
  for (const auto& link : flit_channels_)
    if (!link->empty()) return false;
  for (const auto& r : routers_) {
    for (int p = 0; p < r->num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r->has_input(port)) continue;
      for (int v = 0; v < config_.total_vcs(); ++v)
        if (!r->input(port).vc(v).empty()) return false;
    }
  }
  return true;
}

}  // namespace nbtinoc::noc
