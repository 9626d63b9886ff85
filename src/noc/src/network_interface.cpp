#include "nbtinoc/noc/network_interface.hpp"

#include <stdexcept>

#include "nbtinoc/noc/topology.hpp"

namespace nbtinoc::noc {

NetworkInterface::NetworkInterface(NodeId node, const NocConfig& config, sim::StatRegistry& stats)
    : node_(node), config_(config),
      stats_(&stats),
      h_flits_ejected_(stats.intern("noc.flits_ejected")),
      h_packets_ejected_(stats.intern("noc.packets_ejected")),
      h_ni_va_grants_(stats.intern("noc.ni_va_grants")),
      h_flits_injected_(stats.intern("noc.flits_injected")),
      h_packets_offered_(stats.intern("noc.packets_offered")),
      h_unroutable_(stats.intern("fault.unroutable_packets")),
      d_packet_latency_(stats.intern_distribution("noc.packet_latency")),
      credit_view_(config.total_vcs(), config.buffer_depth) {}

void NetworkInterface::wire(InputUnit* router_local_iu, Channel<Flit>* inject_out,
                            Channel<Credit>* credit_in, Channel<Flit>* eject_in) {
  credit_view_.wire(router_local_iu);
  inject_out_ = inject_out;
  credit_in_ = credit_in;
  eject_in_ = eject_in;
}

void NetworkInterface::mark_dead() {
  dead_ = true;
  queue_.clear();
  sending_ = false;
  send_vc_ = kInvalidVc;
}

bool NetworkInterface::unroutable(NodeId dst) const {
  if (topo_ == nullptr || !topo_->degraded()) return false;
  return !topo_->terminal_alive(dst) ||
         !topo_->route(topo_->router_of(node_), dst).reachable();
}

void NetworkInterface::drop_queued_unroutable() {
  if (dead_ || topo_ == nullptr || !topo_->degraded()) return;
  std::uint64_t dropped = 0;
  const std::size_t n = queue_.size();
  for (std::size_t i = 0; i < n; ++i) {
    QueuedPacket pkt = queue_.front();
    queue_.pop_front();
    if (unroutable(pkt.dst)) {
      ++dropped;
    } else {
      queue_.push_back(pkt);
    }
  }
  if (dropped != 0) stats_->add(h_unroutable_, dropped);
}

void NetworkInterface::receive(sim::Cycle now) {
  if (dead_) return;
  while (auto credit = credit_in_->pop_ready(now)) credit_view_.receive_credit(credit->vc);
  while (auto flit = eject_in_->pop_ready(now)) {
    stats_->add(h_flits_ejected_);
    if (is_tail(flit->type)) {
      ++packets_ejected_;
      stats_->add(h_packets_ejected_);
      stats_->sample(d_packet_latency_, static_cast<double>(now - flit->injected_at));
    }
  }
}

bool NetworkInterface::has_new_traffic(sim::Cycle now) const {
  if (sending_) return false;  // current packet already owns a VC
  return !queue_.empty() && queue_.front().injected_at < now;
}

bool NetworkInterface::has_new_traffic(int vnet, int cls, sim::Cycle now) const {
  return has_new_traffic(now) && queue_.front().vnet == vnet && front_class() == cls;
}

int NetworkInterface::front_class() const {
  return topo_ == nullptr ? 0 : topo_->inject_class(node_, queue_.front().dst);
}

void NetworkInterface::inject(sim::Cycle now, std::uint64_t& packet_id_counter) {
  // VA for the queue head: the NI is the only requester of its local input
  // port, so allocation needs no arbitration — just a free, awake VC in the
  // packet's virtual network (and, on wrap-link topologies, its dateline
  // class subrange).
  if (dead_) return;
  if (!sending_ && !queue_.empty() && queue_.front().injected_at < now) {
    const int cls = front_class();
    const int first = config_.first_vc_of_vnet(queue_.front().vnet) + config_.class_first_vc(cls);
    InputUnit& iu = *credit_view_.downstream();
    for (int v = first; v < first + config_.class_num_vcs(cls); ++v) {
      if (iu.vc(v).allocatable(now)) {
        send_pkt_ = queue_.front();
        queue_.pop_front();
        send_vc_ = v;
        send_seq_ = 0;
        send_id_ = ++packet_id_counter;
        sending_ = true;
        iu.vc(v).allocate(send_id_, now);
        stats_->add(h_ni_va_grants_);
        break;
      }
    }
  }

  // Serialize one flit per cycle, credits permitting.
  if (sending_ && credit_view_.can_send(send_vc_)) {
    Flit flit;
    flit.packet = send_id_;
    flit.src = node_;
    flit.dst = send_pkt_.dst;
    flit.vnet = send_pkt_.vnet;
    flit.seq = send_seq_;
    flit.vc = send_vc_;
    flit.injected_at = send_pkt_.injected_at;
    if (send_pkt_.length == 1) {
      flit.type = FlitType::HeadTail;
    } else if (send_seq_ == 0) {
      flit.type = FlitType::Head;
    } else if (send_seq_ == send_pkt_.length - 1) {
      flit.type = FlitType::Tail;
    } else {
      flit.type = FlitType::Body;
    }
    credit_view_.send(send_vc_);
    inject_out_->push(flit, now);
    ++flits_injected_;
    stats_->add(h_flits_injected_);
    ++send_seq_;
    if (send_seq_ >= send_pkt_.length) {
      sending_ = false;
      send_vc_ = kInvalidVc;
    }
  }
}

void NetworkInterface::generate(sim::Cycle now) {
  // Burst-batched pull: one virtual call hands over every same-cycle packet
  // the source offers (up to kMaxGenerateBurst; surpluses slip — see
  // ITrafficSource::generate_burst). The buffer lives on the stack, so the
  // hot path stays allocation-free under bursty traces.
  if (dead_ || source_ == nullptr) return;
  PacketRequest burst[kMaxGenerateBurst];
  const std::size_t n = source_->generate_burst(now, burst, kMaxGenerateBurst);
  for (std::size_t i = 0; i < n; ++i) {
    const PacketRequest& req = burst[i];
    // Capture before the filters below: a replayed trace re-offers the
    // filtered packets too and re-applies the same filters, which keeps
    // capture -> replay bit-identical.
    if (trace_sink_ != nullptr) trace_sink_->record(now, node_, req);
    if (req.dst == node_) continue;  // self-traffic never enters the NoC
    if (req.length < 1) throw std::logic_error("NI: packet length must be >= 1");
    if (req.vnet < 0 || req.vnet >= config_.num_vnets)
      throw std::logic_error("NI: packet vnet out of range");
    if (unroutable(req.dst)) {
      // Degraded fabric: the destination tile is dead or disconnected.
      // Dropping at the source keeps has_new_traffic() truthful (a packet
      // with no route would assert it forever and never let the port park).
      stats_->add(h_unroutable_);
      continue;
    }
    queue_.push_back(QueuedPacket{req.dst, req.length, req.vnet, now});
    stats_->add(h_packets_offered_);
  }
}

void NetworkInterface::save(sim::SnapshotWriter& w) const {
  w.u64(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const QueuedPacket& p = queue_[i];
    w.i64(p.dst);
    w.i64(p.length);
    w.i64(p.vnet);
    w.u64(static_cast<std::uint64_t>(p.injected_at));
  }
  credit_view_.save(w);
  w.b(sending_);
  w.i64(send_vc_);
  w.i64(send_seq_);
  w.i64(send_pkt_.dst);
  w.i64(send_pkt_.length);
  w.i64(send_pkt_.vnet);
  w.u64(static_cast<std::uint64_t>(send_pkt_.injected_at));
  w.u64(send_id_);
  w.u64(packets_ejected_);
  w.u64(flits_injected_);
  w.b(dead_);
}

void NetworkInterface::load(sim::SnapshotReader& r) {
  queue_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    QueuedPacket p;
    p.dst = static_cast<NodeId>(r.i64());
    p.length = static_cast<int>(r.i64());
    p.vnet = static_cast<int>(r.i64());
    p.injected_at = static_cast<sim::Cycle>(r.u64());
    queue_.push_back(p);
  }
  credit_view_.load(r);
  sending_ = r.b();
  send_vc_ = static_cast<int>(r.i64());
  send_seq_ = static_cast<int>(r.i64());
  send_pkt_.dst = static_cast<NodeId>(r.i64());
  send_pkt_.length = static_cast<int>(r.i64());
  send_pkt_.vnet = static_cast<int>(r.i64());
  send_pkt_.injected_at = static_cast<sim::Cycle>(r.u64());
  send_id_ = r.u64();
  packets_ejected_ = r.u64();
  flits_injected_ = r.u64();
  dead_ = r.b();
}

}  // namespace nbtinoc::noc
