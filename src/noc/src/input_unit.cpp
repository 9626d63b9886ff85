#include "nbtinoc/noc/input_unit.hpp"

#include <algorithm>
#include <stdexcept>

namespace nbtinoc::noc {

InputUnit::InputUnit(Dir dir, const NocConfig& config)
    : dir_(dir),
      extra_stages_(config.extra_pipeline_stages),
      pool_(config.shared_buffers()
                ? std::make_unique<SharedBufferPool>(config.total_vcs(), config.buffer_depth,
                                                     config.shared_reserve, config.wakeup_latency)
                : nullptr),
      vcs_(static_cast<std::size_t>(config.total_vcs()),
           VcBuffer(config.buffer_depth, config.wakeup_latency)),
      out_vc_(static_cast<std::size_t>(config.total_vcs()), kInvalidVc),
      out_port_(static_cast<std::size_t>(config.total_vcs()), Dir::Local),
      trackers_(static_cast<std::size_t>(config.buffers_per_port())),
      sa_arbiter_(static_cast<std::size_t>(config.total_vcs())),
      pending_va_(static_cast<std::size_t>(config.total_vcs())),
      routed_(static_cast<std::size_t>(config.total_vcs())) {
  // Event-driven NBTI accounting: each gateable unit (VC buffer, or pool
  // slot under the shared organization) reports its gate/wake transitions
  // straight to its tracker. The banks are sized once here and never
  // reallocate, so the pointers stay stable for the unit's lifetime.
  for (std::size_t i = 0; i < vcs_.size(); ++i) {
    if (pool_ != nullptr)
      vcs_[i].attach_pool(pool_.get(), static_cast<int>(i));
    else
      vcs_[i].attach_stress_tracker(&trackers_.at(i));
    vcs_[i].attach_busy_counter(&busy_vcs_);
    vcs_[i].attach_gated_counter(&gated_vcs_);
  }
  if (pool_ != nullptr)
    for (int s = 0; s < pool_->num_slots(); ++s)
      pool_->attach_stress_tracker(s, &trackers_.at(static_cast<std::size_t>(s)));
}

void InputUnit::assign_output(int i, Dir port, int downstream_vc) {
  out_vc_.at(static_cast<std::size_t>(i)) = downstream_vc;
  out_port_.at(static_cast<std::size_t>(i)) = port;
  pending_va_.reset(static_cast<std::size_t>(i));
  routed_.set(static_cast<std::size_t>(i));
}

void InputUnit::clear_output(int i) {
  out_vc_.at(static_cast<std::size_t>(i)) = kInvalidVc;
  out_port_.at(static_cast<std::size_t>(i)) = Dir::Local;
  routed_.reset(static_cast<std::size_t>(i));
}

bool InputUnit::holds_unassigned_head(int i) const {
  const VcBuffer& buf = vc(i);
  if (!buf.is_active() || buf.empty() || has_output(i)) return false;
  // Head at the front, RC result stored; whether its buffer write (plus any
  // extra pipeline depth) has completed is waiting_for_va's question.
  return is_head(buf.front().type);
}

void InputUnit::receive_flit(const Flit& flit, Dir route, int next_class, sim::Cycle now) {
  if (flit.vc < 0 || flit.vc >= num_vcs())
    throw std::logic_error("InputUnit::receive_flit: bad VC id");
  VcBuffer& buf = vc(flit.vc);
  Flit stored = flit;
  stored.arrived_at = now;
  if (is_head(flit.type)) {
    buf.set_route(route);
    buf.set_next_class(next_class);
  }
  buf.push(stored);
  // A packet's head is the first flit into its VC, so it lands at the front.
  if (is_head(flit.type)) pending_va_.set(static_cast<std::size_t>(flit.vc));
}

void InputUnit::apply_gate_command(const GateCommand& cmd, sim::Cycle now,
                                   sim::FaultInjector* faults) {
  if (pool_ != nullptr) {
    apply_slot_gate_command(cmd, now, faults);
    return;
  }
  const int first = cmd.first_vc;
  if (first < 0 || first >= num_vcs())
    throw std::invalid_argument("InputUnit::apply_gate_command: first_vc " +
                                std::to_string(first) + " outside port of " +
                                std::to_string(num_vcs()) + " VCs");
  if (cmd.range_vcs == 0 || cmd.range_vcs < -1)
    throw std::invalid_argument("InputUnit::apply_gate_command: range_vcs must be positive or -1");
  const int last = cmd.range_vcs < 0 ? num_vcs() : std::min(num_vcs(), first + cmd.range_vcs);
  if (cmd.enable && cmd.keep_vc != kInvalidVc && (cmd.keep_vc < first || cmd.keep_vc >= last))
    throw std::invalid_argument("InputUnit::apply_gate_command: keep_vc " +
                                std::to_string(cmd.keep_vc) + " outside command range [" +
                                std::to_string(first) + ", " + std::to_string(last) + ")");
  // A wake that misses its deadline (injected fault) is a no-op: the buffer
  // stays gated and the retried command wakes it on a later cycle.
  const auto wake = [&](VcBuffer& buf) {
    if (faults != nullptr && faults->wake_fails()) return;
    buf.wake(now);
  };
  if (!cmd.gating_active) {
    // Baseline upstream: every buffer stays (or returns to) powered.
    for (int i = first; i < last; ++i) {
      VcBuffer& buf = vcs_[static_cast<std::size_t>(i)];
      if (buf.is_gated()) wake(buf);
    }
    return;
  }
  for (int i = first; i < last; ++i) {
    VcBuffer& buf = vcs_[static_cast<std::size_t>(i)];
    if (buf.is_active()) continue;  // holds (or is reserved for) a packet
    const bool keep_awake = cmd.enable && i == cmd.keep_vc;
    if (keep_awake) {
      if (buf.is_gated()) wake(buf);
    } else {
      // A wake in flight cannot be aborted: gate only once the buffer has
      // been allocatable for a full cycle (see VcBuffer::in_wake_window).
      if (buf.is_idle() && !buf.in_wake_window(now)) buf.gate(now);
    }
  }
}

void InputUnit::apply_slot_gate_command(const GateCommand& cmd, sim::Cycle now,
                                        sim::FaultInjector* faults) {
  SharedBufferPool& pool = *pool_;
  const int slots = pool.num_slots();
  if (cmd.first_vc < 0 || cmd.first_vc > slots)
    throw std::invalid_argument("InputUnit::apply_gate_command: first slot " +
                                std::to_string(cmd.first_vc) + " outside pool of " +
                                std::to_string(slots) + " slots");
  if (cmd.range_vcs < -1)
    throw std::invalid_argument(
        "InputUnit::apply_gate_command: slot range must be non-negative or -1");
  if (cmd.keep_vc != kInvalidVc && (cmd.keep_vc < 0 || cmd.keep_vc >= slots))
    throw std::invalid_argument("InputUnit::apply_gate_command: wake slot " +
                                std::to_string(cmd.keep_vc) + " outside pool of " +
                                std::to_string(slots) + " slots");
  // Wakes miss their deadline under an injected fault exactly like the VC
  // form; the re-issued command retries next cycle. A wake (or gate) naming
  // a slot in the wrong state is a no-op/skip — link corruption may deliver
  // such commands and must degrade, not crash.
  const auto wake = [&](int slot) {
    if (faults != nullptr && faults->wake_fails()) return;
    pool.wake_slot(slot, now);
  };
  if (!cmd.gating_active) {
    // Baseline upstream: every slot stays (or returns to) powered.
    if (pool.gated_slots() > 0)
      for (int s = 0; s < slots && pool.gated_slots() > 0; ++s)
        if (pool.slot_state(s) == SharedBufferPool::SlotState::kGated) wake(s);
  } else {
    if (cmd.enable && cmd.keep_vc != kInvalidVc &&
        pool.slot_state(cmd.keep_vc) == SharedBufferPool::SlotState::kGated)
      wake(cmd.keep_vc);
    const int last = cmd.range_vcs < 0 ? slots : std::min(slots, cmd.first_vc + cmd.range_vcs);
    for (int s = cmd.first_vc; s < last; ++s) {
      if (pool.slot_state(s) != SharedBufferPool::SlotState::kFree) continue;
      if (!pool.can_gate()) break;
      pool.gate_slot(s, now);
    }
  }
  // Matured wakes rejoin the free list only now, at the end of command
  // application: the slot is allocatable from this cycle's VA onward and
  // re-gateable one cycle later — the pool equivalent of VcBuffer's
  // wake_ready / in_wake_window fencing.
  pool.promote_woken(now);
}

}  // namespace nbtinoc::noc
