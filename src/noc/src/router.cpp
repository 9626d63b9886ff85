#include "nbtinoc/noc/router.hpp"

#include <stdexcept>

#include "nbtinoc/noc/fault_routing.hpp"
#include "nbtinoc/noc/routing.hpp"

namespace nbtinoc::noc {

Router::Router(NodeId id, const NocConfig& config, sim::StatRegistry& stats,
               const Topology* topology)
    : id_(id), config_(config),
      owned_topology_(topology == nullptr ? Topology::create(config) : nullptr),
      topo_(topology == nullptr ? owned_topology_.get() : topology),
      ports_(config.ports_per_router()),
      flits_out_key_("noc.router" + std::to_string(id) + ".flits_out"),
      stats_(&stats),
      h_va_grants_(stats.intern("noc.va_grants")),
      h_flits_forwarded_(stats.intern("noc.flits_forwarded")),
      h_flits_ejected_router_(stats.intern("noc.flits_ejected_router")),
      h_flits_out_(stats.intern(flits_out_key_)),
      inputs_(static_cast<std::size_t>(ports_)),
      outputs_(static_cast<std::size_t>(ports_)),
      flit_out_(static_cast<std::size_t>(ports_), nullptr),
      credit_in_(static_cast<std::size_t>(ports_), nullptr),
      flit_in_(static_cast<std::size_t>(ports_), nullptr),
      credit_out_(static_cast<std::size_t>(ports_), nullptr),
      eject_out_(static_cast<std::size_t>(ports_), nullptr),
      port_forwarded_(static_cast<std::size_t>(ports_), 0),
      port_dead_(static_cast<std::size_t>(ports_), 0),
      va_matrix_(static_cast<std::size_t>(ports_),
                 RequestSet(static_cast<std::size_t>(ports_ * config.total_vcs()))),
      va_matrix_classes_(
          static_cast<std::size_t>(ports_ * config.num_vnets * config.vc_classes())),
      va_requests_(static_cast<std::size_t>(ports_ * config.total_vcs())),
      vnet_has_free_(static_cast<std::size_t>(config.num_vnets * config.vc_classes())),
      sa_ready_(static_cast<std::size_t>(config.total_vcs())),
      sa_requests_(static_cast<std::size_t>(ports_), RequestSet(static_cast<std::size_t>(ports_))),
      sa_outputs_(static_cast<std::size_t>(ports_)),
      sa_candidate_(static_cast<std::size_t>(ports_), kInvalidVc) {
  // The local (NI-facing) ports always exist; mesh-facing ports are created
  // lazily by wiring, so edge routers carry no dead buffers.
  for (int p = kFirstLocalPort; p < ports_; ++p) {
    const Dir local = static_cast<Dir>(p);
    inputs_[static_cast<std::size_t>(p)] = std::make_unique<InputUnit>(local, config_);
    outputs_[static_cast<std::size_t>(p)] =
        std::make_unique<OutputUnit>(local, config_, /*ejection=*/true);
  }
}

void Router::wire_output(Dir dir, InputUnit* downstream_iu, Channel<Flit>* flit_out,
                         Channel<Credit>* credit_in) {
  const auto d = static_cast<std::size_t>(dir);
  outputs_[d] = std::make_unique<OutputUnit>(dir, config_, /*ejection=*/false);
  outputs_[d]->credit_view().wire(downstream_iu);
  flit_out_[d] = flit_out;
  credit_in_[d] = credit_in;
}

void Router::wire_input(Dir dir, Channel<Flit>* flit_in, Channel<Credit>* credit_out) {
  const auto d = static_cast<std::size_t>(dir);
  if (!is_local(dir)) inputs_[d] = std::make_unique<InputUnit>(dir, config_);
  flit_in_[d] = flit_in;
  credit_out_[d] = credit_out;
}

void Router::wire_ejection(Dir dir, Channel<Flit>* eject_out) {
  if (!is_local(dir))
    throw std::invalid_argument("Router::wire_ejection: " + to_string(dir) +
                                " is not a local port");
  eject_out_[static_cast<std::size_t>(dir)] = eject_out;
}

RouteEntry Router::route_for(Dir in_port, const Flit& flit) const {
  const RouteEntry table = topo_->route(id_, flit.dst);
  if (!config_.adaptive_routing()) return table;
  if (!table.reachable() || is_local(table.dir())) return table;
  if (topo_->degraded()) return degraded_adaptive_route(in_port, flit, table);
  // The packet's class was fixed at injection and is visible in its VC
  // index: escape-class packets (row/column-aligned pairs) take the table's
  // minimal XY route, adaptive-class packets route dynamically.
  const int local_vc = flit.vc - config_.first_vc_of_vnet(flit.vnet);
  if (local_vc < config_.class_first_vc(1)) return table;
  return turn_model_route(flit);
}

RouteEntry Router::turn_model_route(const Flit& flit) const {
  const int w = config_.width;
  const AdaptiveCandidates cand = turn_model_candidates(
      config_.routing, coord_of(id_, w), coord_of(flit.src, w), coord_of(flit.dst, w));
  if (cand.count == 0) throw std::logic_error("Router: empty turn-model candidate set");
  // Least-stressed selection: lowest cumulative forwarded-flit count; the
  // candidates arrive in Dir index order, so strict improvement keeps the
  // lowest port on ties — deterministic across scheduler modes.
  Dir best = cand.dir[0];
  for (int i = 1; i < cand.count; ++i) {
    const Dir d = cand.dir[static_cast<std::size_t>(i)];
    if (port_forwarded_[static_cast<std::size_t>(d)] <
        port_forwarded_[static_cast<std::size_t>(best)])
      best = d;
  }
  RouteEntry entry;
  entry.port = static_cast<std::int16_t>(best);
  entry.vc_class = 1;  // adaptive packets never switch into the escape class
  return entry;
}

RouteEntry Router::degraded_adaptive_route(Dir in_port, const Flit& flit,
                                           RouteEntry table) const {
  const DegradedRouting& dr = *topo_->degraded_routing();
  const NodeId dst_router = topo_->router_of(flit.dst);
  // A packet that has taken a down link may only continue down (the
  // up*/down* restriction); everything else may still climb.
  const bool arrived_down =
      !is_local(in_port) && dr.move_is_down(topo_->neighbor(id_, in_port), id_);
  const int my_dist = dr.dist(id_, dst_router);
  const int my_down = dr.down_dist(id_, dst_router);
  const bool two_class = config_.vc_classes() >= 2;
  Dir best = Dir::Local;
  bool best_down = false;
  bool have = false;
  std::uint64_t best_stress = 0;
  for (int p = 0; p < 4; ++p) {
    const Dir d = static_cast<Dir>(p);
    const NodeId v = topo_->alive_neighbor(id_, d);
    if (v == kInvalidNode) continue;
    const bool down = dr.move_is_down(id_, v);
    bool legal;
    if (arrived_down)
      legal = down && dr.down_dist(v, dst_router) < my_down;
    else if (down)
      legal = dr.down_dist(v, dst_router) < my_dist;
    else
      legal = dr.dist(v, dst_router) < my_dist;
    if (!legal) continue;
    const std::uint64_t stress = port_forwarded_[static_cast<std::size_t>(p)];
    if (!have || stress < best_stress) {
      have = true;
      best = d;
      best_down = down;
      best_stress = stress;
    }
  }
  if (!have) return table;  // unreachable: the table step is always a candidate
  RouteEntry entry;
  entry.port = static_cast<std::int16_t>(best);
  entry.vc_class = static_cast<std::int16_t>(two_class && best_down ? 1 : 0);
  return entry;
}

void Router::reroute_waiting_heads(sim::Cycle now) {
  (void)now;
  if (dead_) return;
  invalidate_va_matrix();
  for (int p = 0; p < ports_; ++p) {
    const auto& iu = inputs_[static_cast<std::size_t>(p)];
    if (!iu) continue;
    iu->pending_va().for_each([&](std::size_t v) {
      VcBuffer& buf = iu->vc(static_cast<int>(v));
      const RouteEntry entry = route_for(static_cast<Dir>(p), buf.front());
      if (!entry.reachable()) return;  // doomed packets were purged already
      buf.set_route(entry.dir());
      buf.set_next_class(entry.vc_class);
    });
  }
}

void Router::refresh_va_matrix(sim::Cycle now) const {
  if (va_matrix_at_ == now) return;
  va_matrix_at_ = now;
  for (RequestSet& row : va_matrix_) row.clear();
  va_matrix_classes_.clear();
  const auto num_vcs = static_cast<std::size_t>(config_.total_vcs());
  for (int p = 0; p < ports_; ++p) {
    const auto& iu = inputs_[static_cast<std::size_t>(p)];
    if (!iu) continue;
    // Only the pending heads; each must also have aged past the pipeline.
    iu->pending_va().for_each([&](std::size_t v) {
      const VcBuffer& buf = iu->vc(static_cast<int>(v));
      if (!iu->flit_eligible(buf.front(), now)) return;
      const int out = static_cast<int>(buf.route());
      va_matrix_.at(static_cast<std::size_t>(out)).set(static_cast<std::size_t>(p) * num_vcs + v);
      va_matrix_classes_.set(va_class_bit(out, buf.front().vnet, buf.next_class()));
    });
  }
}

bool Router::has_new_traffic_toward(Dir out, sim::Cycle now) const {
  refresh_va_matrix(now);
  return va_matrix_[static_cast<std::size_t>(out)].any();
}

bool Router::has_new_traffic_toward(Dir out, int vnet, int cls, sim::Cycle now) const {
  refresh_va_matrix(now);
  return va_matrix_classes_.test(va_class_bit(static_cast<int>(out), vnet, cls));
}

bool Router::any_busy_input() const {
  for (const auto& iu : inputs_)
    if (iu && iu->busy_vcs() > 0) return true;
  return false;
}

bool Router::inbound_links_quiet() const {
  for (const auto* link : flit_in_)
    if (link != nullptr && !link->empty()) return false;
  for (const auto* link : credit_in_)
    if (link != nullptr && !link->empty()) return false;
  return true;
}

void Router::va_stage(sim::Cycle now) {
  // No Active VC on any input port means no VA request can exist, and the
  // request-less scan below has no side effects (arbiters only advance on a
  // grant). Skipping it keeps idle routers O(ports) per cycle.
  if (dead_ || !any_busy_input()) return;
  refresh_va_matrix(now);
  const int num_vcs = config_.total_vcs();
  const int num_classes = config_.vc_classes();
  // A grant takes its head out of only its own output's row, so the rows
  // read here stay exact for every later output of this loop.
  for (int o = 0; o < ports_; ++o) {
    const RequestSet& waiting = va_matrix_[static_cast<std::size_t>(o)];
    if (!waiting.any()) continue;
    const Dir out = static_cast<Dir>(o);
    if (is_local(out)) {
      // Ejection has no VC buffers downstream: every packet routed there is
      // "allocated" immediately; SA serializes the bandwidth.
      waiting.for_each([&](std::size_t i) {
        inputs_[i / static_cast<std::size_t>(num_vcs)]->assign_output(
            static_cast<int>(i % static_cast<std::size_t>(num_vcs)), out, 0);
      });
      continue;
    }
    auto& ou = outputs_[static_cast<std::size_t>(o)];
    if (!ou) continue;
    InputUnit* diu = ou->credit_view().downstream();

    // Per-(vnet, dateline class) availability of a free (awake, idle)
    // downstream VC, for each (vnet, class) a waiting head needs: a packet
    // may only be allocated a VC of its own virtual network and — on
    // wrap-link topologies — of its route's dateline class. With one class
    // the inner loop spans the whole vnet.
    vnet_has_free_.clear();
    for (int vn = 0; vn < config_.num_vnets; ++vn) {
      const int base = config_.first_vc_of_vnet(vn);
      for (int cls = 0; cls < num_classes; ++cls) {
        if (!va_matrix_classes_.test(va_class_bit(o, vn, cls))) continue;
        const int lo = base + config_.class_first_vc(cls);
        const int hi = lo + config_.class_num_vcs(cls);
        for (int v = lo; v < hi; ++v) {
          if (diu->vc(v).allocatable(now)) {
            vnet_has_free_.set(static_cast<std::size_t>(vn * num_classes + cls));
            break;
          }
        }
      }
    }
    if (!vnet_has_free_.any()) continue;  // every waiting head is blocked

    // Requests: the waiting heads whose (vnet, class) has a free
    // downstream VC — at least one, since only needed classes were probed.
    va_requests_.clear();
    waiting.for_each([&](std::size_t i) {
      const VcBuffer& buf = inputs_[i / static_cast<std::size_t>(num_vcs)]->vc(
          static_cast<int>(i % static_cast<std::size_t>(num_vcs)));
      if (vnet_has_free_.test(
              static_cast<std::size_t>(buf.front().vnet * num_classes + buf.next_class())))
        va_requests_.set(i);
    });

    const int winner = ou->va_arbiter().arbitrate(va_requests_);
    if (winner < 0) continue;
    const int port = winner / num_vcs;
    const int vc = winner % num_vcs;
    InputUnit& iu = *inputs_[static_cast<std::size_t>(port)];
    const int vnet = iu.vc(vc).front().vnet;
    const int cls = iu.vc(vc).next_class();

    // Pick the free downstream VC within the winner's (vnet, class)
    // subrange; fair rotation when several are awake (the non-gating
    // baseline).
    const int lo = config_.first_vc_of_vnet(vnet) + config_.class_first_vc(cls);
    const int hi = lo + config_.class_num_vcs(cls);
    int free_vc = kInvalidVc;
    const std::size_t start = ou->vc_select().pointer();
    for (int i = 0; i < num_vcs; ++i) {
      const int v = static_cast<int>((start + static_cast<std::size_t>(i)) %
                                     static_cast<std::size_t>(num_vcs));
      if (v >= lo && v < hi && diu->vc(v).allocatable(now)) {
        free_vc = v;
        break;
      }
    }
    if (free_vc == kInvalidVc) continue;  // availability checked above

    diu->vc(free_vc).allocate(iu.vc(vc).front().packet, now);
    iu.assign_output(vc, out, free_vc);
    ou->vc_select().advance_past(static_cast<std::size_t>(free_vc));
    stats_->add(h_va_grants_);
  }
  invalidate_va_matrix();  // the grants above took their heads out of it
}

void Router::sa_st_stage(sim::Cycle now) {
  // SA readiness requires a non-empty (hence Active) VC: same O(ports)
  // idle skip as va_stage, equally side-effect-free.
  if (dead_ || !any_busy_input()) return;

  // Phase 1: each input port nominates one ready VC among its routed ones
  // (round-robin), filed under that VC's output port.
  for (int p = 0; p < ports_; ++p) {
    auto& iu = inputs_[static_cast<std::size_t>(p)];
    if (!iu) continue;
    sa_ready_.clear();
    bool any = false;
    iu->routed().for_each([&](std::size_t i) {
      const int v = static_cast<int>(i);
      const VcBuffer& buf = iu->vc(v);
      if (buf.empty() || !iu->flit_eligible(buf.front(), now)) return;
      const Dir out = iu->out_port(v);
      if (!is_local(out)) {
        const auto& ou = outputs_[static_cast<std::size_t>(out)];
        if (!ou || !ou->credit_view().can_send(iu->out_vc(v))) return;
      }
      sa_ready_.set(i);
      any = true;
    });
    if (!any) continue;
    const int v = iu->sa_arbiter().peek(sa_ready_);
    const auto out = static_cast<std::size_t>(iu->out_port(v));
    sa_candidate_[static_cast<std::size_t>(p)] = v;
    sa_requests_[out].set(static_cast<std::size_t>(p));
    sa_outputs_.set(out);
  }

  // Phase 2: each requested output port, in ascending order, grants one
  // nominating input port. An input nominates for one output only, so the
  // per-output request sets are disjoint: one grant per input port per cycle.
  sa_outputs_.for_each([&](std::size_t o) {
    RequestSet& requests = sa_requests_[o];
    const int port = outputs_[o]->sa_arbiter().arbitrate(requests);
    requests.clear();

    // Switch + link traversal for the winner.
    InputUnit& iu = *inputs_[static_cast<std::size_t>(port)];
    const int vc = sa_candidate_[static_cast<std::size_t>(port)];
    const int out_vc = iu.out_vc(vc);
    const Dir out = iu.out_port(vc);
    iu.sa_arbiter().advance_past(static_cast<std::size_t>(vc));

    Flit flit = iu.vc(vc).pop();
    const bool tail = is_tail(flit.type);
    if (tail) iu.clear_output(vc);

    if (is_local(out)) {
      Channel<Flit>* eject = eject_out_[static_cast<std::size_t>(out)];
      if (eject == nullptr) throw std::logic_error("Router: ejection not wired");
      eject->push(flit, now);
      stats_->add(h_flits_ejected_router_);
    } else {
      flit.vc = out_vc;
      outputs_[static_cast<std::size_t>(out)]->credit_view().send(out_vc);
      flit_out_[static_cast<std::size_t>(out)]->push(flit, now);
      stats_->add(h_flits_forwarded_);
      ++port_forwarded_[static_cast<std::size_t>(out)];  // adaptive stress signal
    }

    stats_->add(h_flits_out_);

    // Credit (and VC-free notification) back to the upstream entity.
    Channel<Credit>* credit_out = credit_out_[static_cast<std::size_t>(port)];
    if (credit_out != nullptr) credit_out->push(Credit{vc, tail}, now);
  });
  sa_outputs_.clear();
}

void Router::accept_arrivals(sim::Cycle now) {
  if (dead_) return;
  for (int p = 0; p < ports_; ++p) {
    Channel<Flit>* link = flit_in_[static_cast<std::size_t>(p)];
    if (link == nullptr) continue;
    while (auto flit = link->pop_ready(now)) {
      // RC: the table load under DOR; dynamic (adaptive / up*-down*)
      // selection otherwise. The entry also carries the downstream VC class.
      const RouteEntry entry = route_for(static_cast<Dir>(p), *flit);
      inputs_[static_cast<std::size_t>(p)]->receive_flit(*flit, entry.dir(), entry.vc_class, now);
    }
  }
  for (int o = 0; o < ports_; ++o) {
    Channel<Credit>* link = credit_in_[static_cast<std::size_t>(o)];
    if (link == nullptr) continue;
    while (auto credit = link->pop_ready(now))
      outputs_[static_cast<std::size_t>(o)]->credit_view().receive_credit(credit->vc);
  }
}

void Router::sync_stress(sim::Cycle through) {
  for (auto& iu : inputs_)
    if (iu) iu->sync_stress(through);
}

void Router::save(sim::SnapshotWriter& w) const {
  for (const auto& iu : inputs_) {
    w.b(iu != nullptr);
    if (iu) iu->save(w);
  }
  for (const auto& ou : outputs_) {
    w.b(ou != nullptr);
    if (ou) ou->save(w);
  }
  for (std::uint64_t f : port_forwarded_) w.u64(f);
  for (std::uint8_t d : port_dead_) w.u8(d);
  w.b(dead_);
}

void Router::load(sim::SnapshotReader& r) {
  for (auto& iu : inputs_) {
    const bool present = r.b();
    if (present != (iu != nullptr))
      throw sim::SnapshotError("Router " + std::to_string(id_) +
                               ": input-port layout differs from the snapshot");
    if (iu) iu->load(r);
  }
  for (auto& ou : outputs_) {
    const bool present = r.b();
    if (present != (ou != nullptr))
      throw sim::SnapshotError("Router " + std::to_string(id_) +
                               ": output-port layout differs from the snapshot");
    if (ou) ou->load(r);
  }
  for (std::uint64_t& f : port_forwarded_) f = r.u64();
  for (std::uint8_t& d : port_dead_) d = r.u8();
  dead_ = r.b();
  invalidate_va_matrix();
}

}  // namespace nbtinoc::noc
