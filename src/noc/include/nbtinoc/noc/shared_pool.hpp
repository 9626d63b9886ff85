#pragma once
// DAMQ-style shared buffer pool: one physical slot array per input port,
// drawn on by every VC of the port (Onsori & Safaei dynamic VC allocation).
// VCs stay lightweight descriptors (VcBuffer in descriptor mode) holding the
// allocation state machine; the flits themselves live in pool slots chained
// into per-VC linked-list FIFOs — the classic Tamir & Frazier DAMQ layout.
//
// Slot lifecycle:
//
//            push()                    pop()
//    Free ----------> Occupied ----------------> Free
//     |                                           ^
//     | gate_slot()          promote_woken()      |
//     v                  [after wakeup_latency]   |
//    Gated -----------> Waking -------------------+
//            wake_slot()
//
// Free/Occupied/Waking slots are powered (NBTI stress); Gated slots recover.
// Each slot carries its own StressTracker hook and gate-transition counter,
// which is what lets the sensor-wise policy act at *slot* granularity.
//
// Credit/reservation invariant (deadlock safety). Let R = reserve() and
// charged_v = flits the upstream has committed toward VC v (occupancy plus
// in-flight flits plus in-flight credits, at upstream-event times). The pool
// maintains
//
//     S  :=  sum_v max(charged_v, R)  <=  num_slots - gated - waking     (M*)
//
// by gatekeeping the only events that grow the left side (a shared-region
// send: can_send) or shrink the right side (a gate: can_gate) with the same
// expression `overcommit < shared_limit()`. M* implies every in-flight flit
// finds a Free slot on arrival, and a VC with charged_v < R may *always*
// send — the reserved path that keeps escape VCs live under any gating.
//
// All list structure uses index arrays (no heap traffic on the datapath):
// Free slots form a LIFO free list (doubly linked for O(1) removal when a
// policy gates an arbitrary slot), Occupied slots sit on their VC's FIFO
// chain, Waking slots queue FIFO by wake deadline. A slot is on exactly one
// list (Gated slots on none), so one next_ array serves all three.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nbtinoc/nbti/duty_cycle.hpp"
#include "nbtinoc/noc/flit.hpp"
#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {

class SharedBufferPool {
 public:
  enum class SlotState : std::uint8_t { kFree = 0, kOccupied = 1, kGated = 2, kWaking = 3 };

  /// num_slots = num_vcs * buffer_depth (same area as the partitioned bank);
  /// `reserve` flit slots per VC are never gated away (>= 1, deadlock
  /// safety), the remaining shared_capacity() slots float.
  SharedBufferPool(int num_vcs, int buffer_depth, int reserve, sim::Cycle wakeup_latency);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;
  SharedBufferPool(SharedBufferPool&&) noexcept = default;
  SharedBufferPool& operator=(SharedBufferPool&&) = delete;

  int num_slots() const { return num_slots_; }
  int num_vcs() const { return num_vcs_; }
  int reserve() const { return reserve_; }
  /// Slots beyond the per-VC reservations: the dynamically shared region,
  /// and the ceiling on simultaneously gated + waking slots.
  int shared_capacity() const { return num_slots_ - num_vcs_ * reserve_; }

  // --- O(1) occupancy counters (parking proofs) ------------------------------
  int free_slots() const { return free_count_; }
  int occupied_slots() const { return occupied_count_; }
  int gated_slots() const { return gated_count_; }
  int waking_slots() const { return waking_count_; }

  SlotState slot_state(int slot) const { return state_.at(static_cast<std::size_t>(slot)); }
  /// Cycle a Waking slot rejoins the free list (meaningless otherwise).
  sim::Cycle slot_wake_ready(int slot) const { return ready_.at(static_cast<std::size_t>(slot)); }
  /// Free->Gated transitions of this slot (header-PMOS switch count).
  std::uint64_t slot_gate_transitions(int slot) const {
    return gate_transitions_.at(static_cast<std::size_t>(slot));
  }

  // --- credit / reservation accounting (upstream view) ----------------------
  /// Flits the upstream has committed toward VC v and not yet been credited
  /// back for.
  int charged(int v) const { return charged_.at(static_cast<std::size_t>(v)); }
  /// Slots of the shared region currently spoken for beyond reservations:
  /// sum_v max(charged_v - reserve, 0), maintained incrementally.
  int overcommit() const { return overcommit_; }
  /// Shared-region headroom: shrinks while slots are gated or waking.
  int shared_limit() const { return shared_capacity() - gated_count_ - waking_count_; }
  /// Send headroom the shared region still offers: shared_limit() minus the
  /// outstanding overcommit. Zero (or negative, transiently impossible)
  /// means only the per-VC reserved path is open.
  int credit_headroom() const { return shared_limit() - overcommit_; }
  /// Number of VCs whose charge has consumed the whole reserve — their next
  /// flit needs the shared region, so they stall when credit_headroom()
  /// hits zero.
  int vcs_at_reserve() const { return at_reserve_count_; }
  /// Gating has throttled live traffic down to per-VC stop-and-wait: some
  /// VC exhausted its reserve and the shared region has no headroom left.
  /// This is the slot policies' wake-pressure signal — new_traffic (a head
  /// flit awaiting VA upstream) goes quiet during the trickle, but the
  /// outstanding charges keep advertising the demand.
  bool credit_starved() const { return at_reserve_count_ > 0 && credit_headroom() <= 0; }

  /// May the upstream send a flit on VC v this cycle? Reserved path
  /// (charged_v < reserve) is always open; the shared path needs headroom.
  bool can_send(int v) const {
    return charged_[static_cast<std::size_t>(v)] < reserve_ || overcommit_ < shared_limit();
  }
  /// Upstream sent a flit on v (the consume_credit of the slot-credit
  /// scheme).
  void charge(int v) {
    int& c = charged_[static_cast<std::size_t>(v)];
    if (c >= reserve_) ++overcommit_;
    ++c;
    if (c == reserve_) ++at_reserve_count_;
  }
  /// A credit for v returned upstream (the add_credit counterpart).
  void uncharge(int v) {
    int& c = charged_[static_cast<std::size_t>(v)];
    if (c <= 0)
      throw std::logic_error("SharedBufferPool::uncharge: VC " + std::to_string(v) +
                             " has no outstanding charge");
    --c;
    if (c >= reserve_) --overcommit_;
    if (c == reserve_ - 1) --at_reserve_count_;
  }
  /// Rewrites VC v's charge from the conservation identity (structural-fault
  /// credit restoration); fixes overcommit incrementally.
  void set_charged(int v, int value);

  // --- power gating ----------------------------------------------------------
  /// May any Free slot be gated right now? Same headroom expression as the
  /// shared send path: gating shrinks shared_limit() by one, so requiring
  /// strict inequality keeps invariant M* through the transition.
  bool can_gate() const { return free_count_ > 0 && overcommit_ < shared_limit(); }

  /// Free -> Gated. Caller must have checked slot_state() == kFree and
  /// can_gate(); violations throw (a malformed policy, not a modeled fault).
  void gate_slot(int slot, sim::Cycle now);
  /// Gated -> Waking; rejoins the free list via promote_woken() once
  /// wakeup_latency cycles elapse. No-op on non-Gated slots (a re-issued or
  /// corrupted wake command retries harmlessly).
  void wake_slot(int slot, sim::Cycle now);
  /// Moves every Waking slot whose deadline has passed back onto the free
  /// list. Run at the end of gate-command application so a woken slot is
  /// allocatable the cycle it matures and re-gateable the cycle after —
  /// mirroring VcBuffer's wake_ready / in_wake_window fencing.
  void promote_woken(sim::Cycle now);

  // --- datapath (reached through the VcBuffer descriptors) -------------------
  bool has_free_slot() const { return free_count_ > 0; }
  /// Claims a free slot for VC v's chain tail. Throws when no Free slot
  /// exists — invariant M* makes that unreachable from a conforming
  /// upstream.
  void push(int v, const Flit& flit);
  const Flit& front(int v) const {
    const int slot = vc_head_[static_cast<std::size_t>(v)];
    if (slot == kNone)
      throw std::logic_error("SharedBufferPool::front: VC " + std::to_string(v) + " empty");
    return flits_[static_cast<std::size_t>(slot)];
  }
  /// Dequeues VC v's head flit; the slot returns to the free-list head.
  Flit pop(int v);
  int occupancy(int v) const { return vc_count_[static_cast<std::size_t>(v)]; }
  /// Structural-fault drain of VC v's chain: every slot returns to the free
  /// list; Gated/Waking slots are untouched (they hold no flits). Returns
  /// the flits dropped.
  int purge_vc(int v);

  /// Attaches the per-slot NBTI tracker (notified at gate/wake edges; must
  /// outlive the pool; nullptr detaches).
  void attach_stress_tracker(int slot, nbti::StressTracker* tracker) {
    trackers_.at(static_cast<std::size_t>(slot)) = tracker;
  }

  // --- checkpoint/restore ----------------------------------------------------
  /// Serializes slot states, the exact order of every list (free LIFO, VC
  /// chains, waking queue — order is simulation-visible), per-slot wake
  /// deadlines / transition counts / resident flits, and per-VC charges.
  void save(sim::SnapshotWriter& w) const;
  /// Expects a freshly constructed pool of identical geometry; rebuilds all
  /// link arrays and recomputes counters + overcommit. Trackers are not
  /// touched (their accumulators are serialized by the owning port).
  void load(sim::SnapshotReader& r);

 private:
  static constexpr int kNone = -1;

  int pop_free_slot();
  void push_free_slot(int slot);
  void remove_from_free(int slot);

  int num_vcs_;
  int reserve_;
  int num_slots_;
  sim::Cycle wakeup_latency_;

  std::vector<SlotState> state_;
  std::vector<Flit> flits_;
  std::vector<sim::Cycle> ready_;
  std::vector<std::uint64_t> gate_transitions_;
  std::vector<nbti::StressTracker*> trackers_;

  // One next_ array serves the free list, the VC chains and the waking
  // queue (a slot is on at most one); prev_ is meaningful on the free list
  // only (O(1) removal of an arbitrary gated slot).
  std::vector<int> next_;
  std::vector<int> prev_;
  int free_head_ = kNone;
  std::vector<int> vc_head_;
  std::vector<int> vc_tail_;
  std::vector<int> vc_count_;
  int waking_head_ = kNone;
  int waking_tail_ = kNone;

  int free_count_ = 0;
  int occupied_count_ = 0;
  int gated_count_ = 0;
  int waking_count_ = 0;

  std::vector<int> charged_;
  int overcommit_ = 0;
  int at_reserve_count_ = 0;  ///< VCs with charged >= reserve (see vcs_at_reserve)
};

}  // namespace nbtinoc::noc
