#include "nbtinoc/noc/shared_pool.hpp"

namespace nbtinoc::noc {

SharedBufferPool::SharedBufferPool(int num_vcs, int buffer_depth, int reserve,
                                   sim::Cycle wakeup_latency)
    : num_vcs_(num_vcs),
      reserve_(reserve),
      num_slots_(num_vcs * buffer_depth),
      wakeup_latency_(wakeup_latency),
      state_(static_cast<std::size_t>(num_slots_ < 1 ? 1 : num_slots_), SlotState::kFree),
      flits_(state_.size()),
      ready_(state_.size(), 0),
      gate_transitions_(state_.size(), 0),
      trackers_(state_.size(), nullptr),
      next_(state_.size(), kNone),
      prev_(state_.size(), kNone),
      vc_head_(static_cast<std::size_t>(num_vcs < 1 ? 1 : num_vcs), kNone),
      vc_tail_(vc_head_.size(), kNone),
      vc_count_(vc_head_.size(), 0),
      charged_(vc_head_.size(), 0) {
  if (num_vcs < 1) throw std::invalid_argument("SharedBufferPool: num_vcs must be >= 1");
  if (buffer_depth < 1) throw std::invalid_argument("SharedBufferPool: depth must be >= 1");
  if (reserve < 1 || reserve > buffer_depth)
    throw std::invalid_argument("SharedBufferPool: reserve must be in [1, buffer_depth]");
  // Initial free list: ascending slot order, head = 0 (pop order 0, 1, ...).
  for (int s = 0; s < num_slots_; ++s) {
    next_[static_cast<std::size_t>(s)] = s + 1 < num_slots_ ? s + 1 : kNone;
    prev_[static_cast<std::size_t>(s)] = s - 1;
  }
  free_head_ = 0;
  free_count_ = num_slots_;
}

int SharedBufferPool::pop_free_slot() {
  const int slot = free_head_;
  if (slot == kNone) throw std::logic_error("SharedBufferPool: no free slot (invariant breach)");
  free_head_ = next_[static_cast<std::size_t>(slot)];
  if (free_head_ != kNone) prev_[static_cast<std::size_t>(free_head_)] = kNone;
  --free_count_;
  return slot;
}

void SharedBufferPool::push_free_slot(int slot) {
  state_[static_cast<std::size_t>(slot)] = SlotState::kFree;
  prev_[static_cast<std::size_t>(slot)] = kNone;
  next_[static_cast<std::size_t>(slot)] = free_head_;
  if (free_head_ != kNone) prev_[static_cast<std::size_t>(free_head_)] = slot;
  free_head_ = slot;
  ++free_count_;
}

void SharedBufferPool::remove_from_free(int slot) {
  const int p = prev_[static_cast<std::size_t>(slot)];
  const int n = next_[static_cast<std::size_t>(slot)];
  if (p != kNone)
    next_[static_cast<std::size_t>(p)] = n;
  else
    free_head_ = n;
  if (n != kNone) prev_[static_cast<std::size_t>(n)] = p;
  --free_count_;
}

void SharedBufferPool::set_charged(int v, int value) {
  if (value < 0)
    throw std::logic_error("SharedBufferPool::set_charged: negative charge for VC " +
                           std::to_string(v));
  int& c = charged_[static_cast<std::size_t>(v)];
  overcommit_ += (value > reserve_ ? value - reserve_ : 0) - (c > reserve_ ? c - reserve_ : 0);
  at_reserve_count_ += (value >= reserve_ ? 1 : 0) - (c >= reserve_ ? 1 : 0);
  c = value;
}

void SharedBufferPool::gate_slot(int slot, sim::Cycle now) {
  if (slot_state(slot) != SlotState::kFree)
    throw std::logic_error("SharedBufferPool::gate_slot: slot " + std::to_string(slot) +
                           " is not Free");
  if (!can_gate())
    throw std::logic_error("SharedBufferPool::gate_slot: no reservation headroom to gate");
  remove_from_free(slot);
  state_[static_cast<std::size_t>(slot)] = SlotState::kGated;
  ++gated_count_;
  ++gate_transitions_[static_cast<std::size_t>(slot)];
  if (trackers_[static_cast<std::size_t>(slot)] != nullptr)
    trackers_[static_cast<std::size_t>(slot)]->note_state(false, now);
}

void SharedBufferPool::wake_slot(int slot, sim::Cycle now) {
  if (slot_state(slot) != SlotState::kGated) return;
  state_[static_cast<std::size_t>(slot)] = SlotState::kWaking;
  ready_[static_cast<std::size_t>(slot)] = now + wakeup_latency_;
  next_[static_cast<std::size_t>(slot)] = kNone;
  if (waking_tail_ != kNone)
    next_[static_cast<std::size_t>(waking_tail_)] = slot;
  else
    waking_head_ = slot;
  waking_tail_ = slot;
  --gated_count_;
  ++waking_count_;
  if (trackers_[static_cast<std::size_t>(slot)] != nullptr)
    trackers_[static_cast<std::size_t>(slot)]->note_state(true, now);
}

void SharedBufferPool::promote_woken(sim::Cycle now) {
  while (waking_head_ != kNone && ready_[static_cast<std::size_t>(waking_head_)] <= now) {
    const int slot = waking_head_;
    waking_head_ = next_[static_cast<std::size_t>(slot)];
    if (waking_head_ == kNone) waking_tail_ = kNone;
    --waking_count_;
    push_free_slot(slot);
  }
}

void SharedBufferPool::push(int v, const Flit& flit) {
  const int slot = pop_free_slot();
  state_[static_cast<std::size_t>(slot)] = SlotState::kOccupied;
  flits_[static_cast<std::size_t>(slot)] = flit;
  next_[static_cast<std::size_t>(slot)] = kNone;
  const std::size_t vi = static_cast<std::size_t>(v);
  if (vc_tail_[vi] != kNone)
    next_[static_cast<std::size_t>(vc_tail_[vi])] = slot;
  else
    vc_head_[vi] = slot;
  vc_tail_[vi] = slot;
  ++vc_count_[vi];
  ++occupied_count_;
}

Flit SharedBufferPool::pop(int v) {
  const std::size_t vi = static_cast<std::size_t>(v);
  const int slot = vc_head_[vi];
  if (slot == kNone)
    throw std::logic_error("SharedBufferPool::pop: VC " + std::to_string(v) + " empty");
  vc_head_[vi] = next_[static_cast<std::size_t>(slot)];
  if (vc_head_[vi] == kNone) vc_tail_[vi] = kNone;
  --vc_count_[vi];
  --occupied_count_;
  const Flit flit = flits_[static_cast<std::size_t>(slot)];
  push_free_slot(slot);
  return flit;
}

int SharedBufferPool::purge_vc(int v) {
  const std::size_t vi = static_cast<std::size_t>(v);
  int dropped = 0;
  int slot = vc_head_[vi];
  while (slot != kNone) {
    const int next = next_[static_cast<std::size_t>(slot)];
    push_free_slot(slot);
    ++dropped;
    slot = next;
  }
  vc_head_[vi] = kNone;
  vc_tail_[vi] = kNone;
  vc_count_[vi] = 0;
  occupied_count_ -= dropped;
  return dropped;
}

void SharedBufferPool::save(sim::SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(num_slots_));
  for (int s = 0; s < num_slots_; ++s) {
    const std::size_t si = static_cast<std::size_t>(s);
    w.u8(static_cast<std::uint8_t>(state_[si]));
    w.u64(static_cast<std::uint64_t>(ready_[si]));
    w.u64(gate_transitions_[si]);
    if (state_[si] == SlotState::kOccupied) snapshot_save(w, flits_[si]);
  }
  // List orders are simulation-visible (they decide which physical slot the
  // next flit lands in), so each list is serialized head-first.
  for (int v = 0; v < num_vcs_; ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    w.u64(static_cast<std::uint64_t>(vc_count_[vi]));
    for (int s = vc_head_[vi]; s != kNone; s = next_[static_cast<std::size_t>(s)])
      w.u64(static_cast<std::uint64_t>(s));
  }
  w.u64(static_cast<std::uint64_t>(free_count_));
  for (int s = free_head_; s != kNone; s = next_[static_cast<std::size_t>(s)])
    w.u64(static_cast<std::uint64_t>(s));
  w.u64(static_cast<std::uint64_t>(waking_count_));
  for (int s = waking_head_; s != kNone; s = next_[static_cast<std::size_t>(s)])
    w.u64(static_cast<std::uint64_t>(s));
  for (int v = 0; v < num_vcs_; ++v) w.u64(static_cast<std::uint64_t>(charged_[v]));
}

void SharedBufferPool::load(sim::SnapshotReader& r) {
  r.expect_u64(static_cast<std::uint64_t>(num_slots_), "shared-pool slot count");
  free_head_ = waking_head_ = waking_tail_ = kNone;
  free_count_ = occupied_count_ = gated_count_ = waking_count_ = 0;
  overcommit_ = 0;
  for (int s = 0; s < num_slots_; ++s) {
    const std::size_t si = static_cast<std::size_t>(s);
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(SlotState::kWaking))
      throw sim::SnapshotError("SharedBufferPool: invalid slot state " + std::to_string(st));
    state_[si] = static_cast<SlotState>(st);
    ready_[si] = static_cast<sim::Cycle>(r.u64());
    gate_transitions_[si] = r.u64();
    flits_[si] = Flit{};
    if (state_[si] == SlotState::kOccupied) flits_[si] = snapshot_load_flit(r);
    next_[si] = kNone;
    prev_[si] = kNone;
    if (state_[si] == SlotState::kGated) ++gated_count_;
  }
  const auto read_slot = [&](SlotState expected, const char* what) {
    const std::uint64_t raw = r.u64();
    if (raw >= static_cast<std::uint64_t>(num_slots_))
      throw sim::SnapshotError("SharedBufferPool: " + std::string(what) + " index " +
                               std::to_string(raw) + " out of range");
    const int slot = static_cast<int>(raw);
    if (state_[static_cast<std::size_t>(slot)] != expected)
      throw sim::SnapshotError("SharedBufferPool: " + std::string(what) + " lists slot " +
                               std::to_string(slot) + " whose state disagrees");
    return slot;
  };
  for (int v = 0; v < num_vcs_; ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const std::uint64_t n = r.u64();
    vc_head_[vi] = vc_tail_[vi] = kNone;
    vc_count_[vi] = static_cast<int>(n);
    occupied_count_ += static_cast<int>(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const int slot = read_slot(SlotState::kOccupied, "VC chain");
      if (vc_tail_[vi] != kNone)
        next_[static_cast<std::size_t>(vc_tail_[vi])] = slot;
      else
        vc_head_[vi] = slot;
      vc_tail_[vi] = slot;
    }
  }
  const std::uint64_t free_n = r.u64();
  int free_tail = kNone;
  for (std::uint64_t i = 0; i < free_n; ++i) {
    const int slot = read_slot(SlotState::kFree, "free list");
    prev_[static_cast<std::size_t>(slot)] = free_tail;
    if (free_tail != kNone)
      next_[static_cast<std::size_t>(free_tail)] = slot;
    else
      free_head_ = slot;
    free_tail = slot;
  }
  free_count_ = static_cast<int>(free_n);
  const std::uint64_t waking_n = r.u64();
  for (std::uint64_t i = 0; i < waking_n; ++i) {
    const int slot = read_slot(SlotState::kWaking, "waking queue");
    if (waking_tail_ != kNone)
      next_[static_cast<std::size_t>(waking_tail_)] = slot;
    else
      waking_head_ = slot;
    waking_tail_ = slot;
  }
  waking_count_ = static_cast<int>(waking_n);
  if (free_count_ + occupied_count_ + gated_count_ + waking_count_ != num_slots_)
    throw sim::SnapshotError("SharedBufferPool: slot conservation fails in snapshot (" +
                             std::to_string(free_count_) + " free + " +
                             std::to_string(occupied_count_) + " occupied + " +
                             std::to_string(gated_count_) + " gated + " +
                             std::to_string(waking_count_) + " waking != " +
                             std::to_string(num_slots_) + ")");
  for (int v = 0; v < num_vcs_; ++v) {
    charged_[static_cast<std::size_t>(v)] = 0;
    set_charged(v, static_cast<int>(r.u64()));
  }
}

}  // namespace nbtinoc::noc
