#include "nbtinoc/noc/state_probe.hpp"

#include <stdexcept>

#include "nbtinoc/util/csv.hpp"

namespace nbtinoc::noc {

namespace {
char state_letter(VcState s) {
  switch (s) {
    case VcState::Idle:
      return 'I';
    case VcState::Active:
      return 'A';
    case VcState::Recovery:
      return 'R';
  }
  return '?';
}
}  // namespace

PortStateProbe::PortStateProbe(const Network& network, PortKey key)
    : network_(&network), key_(key), num_vcs_(network.config().total_vcs()) {
  if (!network.router(key.router).has_input(key.port))
    throw std::invalid_argument("PortStateProbe: port does not exist");
}

void PortStateProbe::sample() {
  Record rec;
  rec.cycle = network_->clock().now();
  rec.states.reserve(static_cast<std::size_t>(num_vcs_));
  const auto& iu = network_->router(key_.router).input(key_.port);
  for (int v = 0; v < num_vcs_; ++v) rec.states.push_back(state_letter(iu.vc(v).state()));
  records_.push_back(std::move(rec));
}

PortStateProbe::StateShares PortStateProbe::shares(int vc) const {
  StateShares out;
  if (records_.empty() || vc < 0 || vc >= num_vcs_) return out;
  for (const auto& rec : records_) {
    switch (rec.states[static_cast<std::size_t>(vc)]) {
      case 'I':
        out.idle += 1.0;
        break;
      case 'A':
        out.active += 1.0;
        break;
      case 'R':
        out.recovery += 1.0;
        break;
    }
  }
  const auto n = static_cast<double>(records_.size());
  out.idle /= n;
  out.active /= n;
  out.recovery /= n;
  return out;
}

std::string PortStateProbe::ascii_timeline(std::size_t max_cycles) const {
  const std::size_t count = records_.size() < max_cycles ? records_.size() : max_cycles;
  const std::size_t start = records_.size() - count;
  std::string out;
  for (int v = 0; v < num_vcs_; ++v) {
    out += "VC" + std::to_string(v) + " ";
    for (std::size_t i = 0; i < count; ++i) {
      out += records_[start + i].states[static_cast<std::size_t>(v)];
      if ((i + 1) % 10 == 0 && i + 1 < count) out += ' ';
    }
    out += '\n';
  }
  return out;
}

InvariantChecker::InvariantChecker(const Network& network)
    : InvariantChecker(network, Options{}) {}

InvariantChecker::InvariantChecker(const Network& network, Options options)
    : network_(&network), options_(options) {}

void InvariantChecker::record(sim::Cycle cycle, std::string what) {
  if (violations_.size() < options_.max_violations)
    violations_.push_back(Violation{cycle, std::move(what)});
}

std::size_t InvariantChecker::check() {
  const std::size_t before = violations_.size();
  const sim::Cycle cycle = network_->clock().now();
  check_gated_buffers(cycle);
  check_work_masks(cycle);
  check_shared_pools(cycle);
  check_credit_conservation(cycle);
  check_flit_conservation(cycle);
  check_deadlock(cycle);
  if (network_->scheduler_mode() == SchedulerMode::kActiveSet) {
    check_active_set(cycle);
    check_settled_ports(cycle);
  }
  ++cycles_checked_;
  return violations_.size() - before;
}

void InvariantChecker::check_or_throw() {
  const std::size_t found = check();
  if (found > 0)
    throw std::runtime_error("InvariantChecker: cycle " +
                             std::to_string(violations_.back().cycle) + ": " +
                             violations_[violations_.size() - found].what);
}

void InvariantChecker::check_gated_buffers(sim::Cycle cycle) {
  const NocConfig& cfg = network_->config();
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    const Router& r = network_->router(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const InputUnit& iu = r.input(port);
      for (int v = 0; v < cfg.total_vcs(); ++v) {
        const VcBuffer& buf = iu.vc(v);
        if (buf.state() == VcState::Recovery && buf.occupancy() > 0)
          record(cycle, "flit(s) resident in gated buffer r" + std::to_string(id) + ":" +
                            dir_letter(port) + " vc" + std::to_string(v) + " (occupancy " +
                            std::to_string(buf.occupancy()) + ")");
      }
    }
  }
}

void InvariantChecker::check_work_masks(sim::Cycle cycle) {
  const NocConfig& cfg = network_->config();
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    const Router& r = network_->router(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const InputUnit& iu = r.input(port);
      for (int v = 0; v < cfg.total_vcs(); ++v) {
        const auto bit = static_cast<std::size_t>(v);
        const auto report = [&](const char* mask, bool kept) {
          record(cycle, std::string("stale ") + mask + " mask on r" + std::to_string(id) + ":" +
                            dir_letter(port) + " vc" + std::to_string(v) + ": bit " +
                            (kept ? "1" : "0") + " but the VC state says " + (kept ? "0" : "1"));
        };
        if (const bool kept = iu.pending_va().test(bit); kept != iu.holds_unassigned_head(v))
          report("pending_va", kept);
        if (const bool kept = iu.routed().test(bit); kept != iu.has_output(v))
          report("routed", kept);
      }
    }
  }
}

void InvariantChecker::check_shared_pools(sim::Cycle cycle) {
  const NocConfig& cfg = network_->config();
  if (!cfg.shared_buffers()) return;
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    const Router& r = network_->router(id);
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port)) continue;
      const SharedBufferPool* pool = r.input(port).pool();
      const std::string where =
          std::string("r").append(std::to_string(id)).append(1, ':').append(1, dir_letter(port));
      if (pool == nullptr) {
        record(cycle, "shared organization but port " + where + " has no slot pool");
        continue;
      }
      // Slot conservation: recount the states and compare against the O(1)
      // counters the scheduler proofs rely on.
      int free = 0;
      int occupied = 0;
      int gated = 0;
      int waking = 0;
      for (int s = 0; s < pool->num_slots(); ++s) {
        switch (pool->slot_state(s)) {
          case SharedBufferPool::SlotState::kFree:
            ++free;
            break;
          case SharedBufferPool::SlotState::kOccupied:
            ++occupied;
            break;
          case SharedBufferPool::SlotState::kGated:
            ++gated;
            break;
          case SharedBufferPool::SlotState::kWaking:
            ++waking;
            break;
        }
      }
      if (free != pool->free_slots() || occupied != pool->occupied_slots() ||
          gated != pool->gated_slots() || waking != pool->waking_slots())
        record(cycle, "slot conservation broken on " + where + ": census F/O/G/W = " +
                          std::to_string(free) + "/" + std::to_string(occupied) + "/" +
                          std::to_string(gated) + "/" + std::to_string(waking) +
                          " vs counters " + std::to_string(pool->free_slots()) + "/" +
                          std::to_string(pool->occupied_slots()) + "/" +
                          std::to_string(pool->gated_slots()) + "/" +
                          std::to_string(pool->waking_slots()));
      // Every flit lives in exactly one VC chain; the chains partition the
      // Occupied slots.
      int chained = 0;
      for (int v = 0; v < cfg.total_vcs(); ++v) chained += pool->occupancy(v);
      if (chained != occupied)
        record(cycle, "pool chain census broken on " + where + ": VC chains hold " +
                          std::to_string(chained) + " flit(s) but " + std::to_string(occupied) +
                          " slot(s) are Occupied");
      // Overcommit accumulator against its defining sum, and invariant M*
      // itself (sum_v max(charged_v, R) <= slots - gated - waking): M* is
      // what guarantees every in-flight flit a Free slot on arrival.
      int overcommit = 0;
      int pledged = 0;
      for (int v = 0; v < cfg.total_vcs(); ++v) {
        const int c = pool->charged(v);
        overcommit += c > pool->reserve() ? c - pool->reserve() : 0;
        pledged += c > pool->reserve() ? c : pool->reserve();
      }
      if (overcommit != pool->overcommit())
        record(cycle, "pool overcommit accumulator broken on " + where + ": " +
                          std::to_string(pool->overcommit()) + " vs recomputed " +
                          std::to_string(overcommit));
      if (!r.input_port_dead(port) && pledged > pool->num_slots() - gated - waking)
        record(cycle, "pool reservation invariant (M*) broken on " + where +
                          ": pledged " + std::to_string(pledged) + " slot(s) but only " +
                          std::to_string(pool->num_slots() - gated - waking) +
                          " powered-on slot(s)");
    }
  }
}

namespace {
/// Per-VC link population: flits (by flit.vc) or credits (by credit.vc).
template <typename T>
std::size_t in_flight_for_vc(const Channel<T>* link, int vc) {
  std::size_t n = 0;
  if (link != nullptr)
    link->for_each_in_flight([&](const T& payload, sim::Cycle) {
      if (payload.vc == vc) ++n;
    });
  return n;
}
}  // namespace

void InvariantChecker::check_credit_conservation(sim::Cycle cycle) {
  const NocConfig& cfg = network_->config();
  // One link: the upstream credit view of each downstream VC, closed over
  // both in-flight directions. Under a shared pool the identity is
  // charge-resident: everything the upstream charged for v is in flight on
  // the two links or resident in v's slot chain, nothing else. `where`
  // names the link, built only for a report.
  const auto check_link = [&](const auto& where, const CreditView& view,
                              const Channel<Flit>* flits, const Channel<Credit>* credits,
                              const InputUnit& diu) {
    for (int v = 0; v < cfg.total_vcs(); ++v) {
      const std::size_t outstanding = in_flight_for_vc(flits, v) + in_flight_for_vc(credits, v) +
                                      static_cast<std::size_t>(diu.vc(v).occupancy());
      if (const SharedBufferPool* pool = diu.pool()) {
        if (outstanding != static_cast<std::size_t>(pool->charged(v)))
          record(cycle, "pool charge leak on " + where() + " vc" + std::to_string(v) +
                            ": in_flight+occupancy = " + std::to_string(outstanding) +
                            " but charged " + std::to_string(pool->charged(v)));
      } else if (const std::size_t total = static_cast<std::size_t>(view.credits(v)) + outstanding;
                 total != static_cast<std::size_t>(cfg.buffer_depth)) {
        record(cycle, "credit leak on " + where() + " vc" + std::to_string(v) +
                          ": credits+in_flight+occupancy = " + std::to_string(total) +
                          ", expected " + std::to_string(cfg.buffer_depth));
      }
    }
  };
  const Topology& topo = network_->topology();
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    const Router& r = network_->router(id);
    // Dead resources are outside the identity: their channels were cleared
    // and their credit views blocked by the structural-fault drain.
    if (r.dead()) continue;
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      if (!r.has_output(dir) || r.downstream_input(dir) == nullptr) continue;
      if (!topo.link_alive(id, dir)) continue;
      const auto where = [&] {
        return std::string("r").append(std::to_string(id)).append(" output ").append(to_string(dir));
      };
      check_link(where, r.output(dir).credit_view(), r.flit_out_link(dir), r.credit_in_link(dir),
                 *r.downstream_input(dir));
    }
  }
  // NI injection path: same identity for each terminal's local input port.
  for (NodeId id = 0; id < network_->nodes(); ++id) {
    const NetworkInterface& ni = network_->ni(id);
    if (ni.dead()) continue;
    const auto where = [&] {
      return std::string("NI ").append(std::to_string(id)).append(" injection path");
    };
    check_link(where, ni.credit_view(), ni.inject_link(), ni.credit_link(),
               network_->router(topo.router_of(id)).input(topo.local_port_of(id)));
  }
}

void InvariantChecker::check_flit_conservation(sim::Cycle cycle) {
  const std::size_t resident = network_->flits_resident();
  const std::uint64_t injected = network_->stats().counter("noc.flits_injected");
  const std::uint64_t ejected = network_->stats().counter("noc.flits_ejected");
  // Flits removed by structural-fault drains are accounted, not lost: the
  // network tallies every purge (monotonic, never reset with the registry).
  const std::uint64_t dropped = network_->dropped_flits();
  // A counter running backwards means the registry was reset (warmup
  // fence): re-baseline instead of reporting a bogus loss.
  if (census_valid_ && injected >= last_injected_ && ejected >= last_ejected_) {
    const auto expected = static_cast<std::int64_t>(last_resident_) +
                          static_cast<std::int64_t>(injected - last_injected_) -
                          static_cast<std::int64_t>(ejected - last_ejected_) -
                          static_cast<std::int64_t>(dropped - last_dropped_);
    if (expected != static_cast<std::int64_t>(resident))
      record(cycle, "flit conservation broken: resident census " + std::to_string(resident) +
                        " but expected " + std::to_string(expected) +
                        " (injected/ejected/dropped delta since last check)");
  }
  census_valid_ = true;
  last_resident_ = resident;
  last_injected_ = injected;
  last_ejected_ = ejected;
  last_dropped_ = dropped;
}

void InvariantChecker::check_deadlock(sim::Cycle cycle) {
  const sim::StatRegistry& stats = network_->stats();
  const std::uint64_t movement =
      stats.counter("noc.flits_injected") + stats.counter("noc.flits_ejected") +
      stats.counter("noc.flits_forwarded") + stats.counter("noc.flits_ejected_router");
  if (movement != last_movement_ || network_->flits_resident() == 0) {
    last_movement_ = movement;
    last_progress_cycle_ = cycle;
    deadlock_reported_ = false;
    return;
  }
  if (!deadlock_reported_ && cycle >= last_progress_cycle_ &&
      cycle - last_progress_cycle_ >= options_.deadlock_threshold) {
    record(cycle, "deadlock: " + std::to_string(network_->flits_resident()) +
                      " flit(s) resident with no movement since cycle " +
                      std::to_string(last_progress_cycle_));
    deadlock_reported_ = true;
  }
}

namespace {
/// True if `link` carries any payload whose delivery cycle is <= `by`.
template <typename T>
bool has_payload_due(const Channel<T>* link, sim::Cycle by) {
  bool due = false;
  if (link != nullptr)
    link->for_each_in_flight([&](const T&, sim::Cycle at) {
      if (at <= by) due = true;
    });
  return due;
}
}  // namespace

void InvariantChecker::check_active_set(sim::Cycle cycle) {
  // `cycle` is the cycle about to execute; router_active()/ni_active() name
  // the components scheduled for it. Any parked component must be provably
  // inert *this* cycle: no busy datapath, gating at its fixed point, and no
  // link payload already deliverable. Payloads due at cycle+1 and later are
  // legal while parked — their wakes sit in the scheduler's wake ring/heap,
  // which this read-only probe intentionally cannot see.
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    if (network_->router_active(id)) continue;
    const Router& r = network_->router(id);
    if (r.any_busy_input())
      record(cycle, "active-set: parked router r" + std::to_string(id) + " has a busy input VC");
    if (!network_->router_gating_fixed_point(id))
      record(cycle, "active-set: parked router r" + std::to_string(id) +
                        " is not at its gating fixed point");
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir dir = static_cast<Dir>(p);
      if (has_payload_due(r.flit_in_link(dir), cycle))
        record(cycle, "active-set: parked router r" + std::to_string(id) +
                          " has a deliverable inbound flit on " + to_string(dir));
      if (has_payload_due(r.credit_in_link(dir), cycle))
        record(cycle, "active-set: parked router r" + std::to_string(id) +
                          " has a deliverable inbound credit on " + to_string(dir));
    }
  }
  for (NodeId t = 0; t < network_->nodes(); ++t) {
    if (network_->ni_active(t)) continue;
    const NetworkInterface& ni = network_->ni(t);
    if (!ni.idle())
      record(cycle, "active-set: parked NI " + std::to_string(t) + " holds queued/sending work");
    if (has_payload_due(ni.credit_link(), cycle) || has_payload_due(ni.eject_link(), cycle))
      record(cycle,
             "active-set: parked NI " + std::to_string(t) + " has a deliverable inbound payload");
  }
}

void InvariantChecker::check_settled_ports(sim::Cycle cycle) {
  // A settled port is passed by without a test, so one that is not at rest
  // would miss a decision the literal walk makes this cycle.
  for (NodeId id = 0; id < network_->num_routers(); ++id) {
    const Router& r = network_->router(id);
    if (r.dead()) continue;
    for (int p = 0; p < r.num_ports(); ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!r.has_input(port) || r.input_port_dead(port)) continue;
      if (network_->port_settled(id, port) && !network_->port_at_rest(id, port))
        record(cycle, "settled port r" + std::to_string(id) + ":" + dir_letter(port) +
                          " is not at rest: the gating stage would skip its decision");
    }
  }
}

void PortStateProbe::save_csv(const std::string& path) const {
  util::CsvWriter out(path);
  std::vector<std::string> header{"cycle"};
  for (int v = 0; v < num_vcs_; ++v) header.push_back("vc" + std::to_string(v));
  out.write_row(header);
  for (const auto& rec : records_) {
    std::vector<std::string> row{std::to_string(rec.cycle)};
    for (char c : rec.states) row.emplace_back(1, c);
    out.write_row(row);
  }
}

}  // namespace nbtinoc::noc
