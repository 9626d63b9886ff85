#pragma once
// One virtual-channel buffer: a flit FIFO plus the power/allocation state
// machine the NBTI policies act on.
//
// State machine (paper §III):
//
//        allocate()                 tail dequeued
//   Idle ----------> Active -------------------------> Idle
//    |  ^                                               |
//    |  | wake() [after wakeup_latency]                 |
//    v  |                                               |
//   Recovery <------------------------------------------ gate()
//
// Only an *empty, unallocated* buffer may be gated; only Idle buffers are
// allocatable; a gated buffer becomes allocatable wakeup_latency cycles
// after wake(). Every powered cycle is NBTI stress; gated cycles recover.
//
// The FIFO is a fixed ring sized at construction (the buffer depth is a
// hardware constant), so the steady-state datapath performs no heap
// allocation. An optionally attached StressTracker is notified of every
// powered<->gated transition, which is what makes event-driven (lazy) NBTI
// accounting exact: gate()/wake() are the only edges of is_stressed().

#include <stdexcept>
#include <vector>

#include "nbtinoc/nbti/duty_cycle.hpp"
#include "nbtinoc/noc/flit.hpp"
#include "nbtinoc/noc/shared_pool.hpp"
#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/clock.hpp"

namespace nbtinoc::noc {

// Under the shared (DAMQ) organization a VcBuffer runs in *descriptor mode*
// (attach_pool): the allocation state machine (Idle/Active, packet, route,
// downstream bookkeeping) stays here, but the FIFO datapath delegates to the
// port's SharedBufferPool chain and power gating moves to physical slots —
// a descriptor is never gated, so wake_ready_ stays 0 and gate() throws.

class VcBuffer {
 public:
  VcBuffer(int depth, sim::Cycle wakeup_latency)
      : depth_(depth), wakeup_latency_(wakeup_latency),
        ring_(static_cast<std::size_t>(depth < 1 ? 1 : depth)) {
    if (depth < 1) throw std::invalid_argument("VcBuffer: depth must be >= 1");
  }

  /// Attaches the NBTI tracker notified at every gate/wake transition
  /// (event-driven accounting). The tracker must outlive the buffer; pass
  /// nullptr to detach. Standalone buffers (unit tests) run untracked.
  void attach_stress_tracker(nbti::StressTracker* tracker) { tracker_ = tracker; }

  /// Attaches the owning port's Active-VC counter, bumped at allocation and
  /// released when the tail flit pops. The counter must outlive the buffer.
  /// Lets the router prove a port packet-free in O(1) and skip its VA/SA
  /// scans entirely (waiting_for_va and SA readiness both require Active).
  void attach_busy_counter(int* counter) { busy_counter_ = counter; }

  /// Attaches the owning port's Gated-VC counter, bumped at gate() and
  /// released at wake(). The counter must outlive the buffer. Together with
  /// the busy counter this gives the active-set scheduler an O(1) proof that
  /// a port is in a gating fixed point (all VCs Recovery) without scanning.
  void attach_gated_counter(int* counter) { gated_counter_ = counter; }

  /// Switches the buffer into descriptor mode over `pool`, as VC `vc` of
  /// the port's shared slot pool (nullptr reverts to partitioned mode; only
  /// valid while empty and Idle). The pool must outlive the buffer.
  void attach_pool(SharedBufferPool* pool, int vc = 0) {
    if (count_ != 0 || state_ != VcState::Idle)
      throw std::logic_error("VcBuffer::attach_pool: buffer must be empty and Idle");
    pool_ = pool;
    pool_vc_ = vc;
  }
  bool pooled() const { return pool_ != nullptr; }

  // --- state queries -------------------------------------------------------
  VcState state() const { return state_; }
  bool is_idle() const { return state_ == VcState::Idle; }
  bool is_active() const { return state_ == VcState::Active; }
  bool is_gated() const { return state_ == VcState::Recovery; }
  /// Powered (stressing its PMOS network) in every non-Recovery state.
  bool is_stressed() const { return state_ != VcState::Recovery; }
  /// Idle and past any pending wake-up: VA may claim it this cycle. In
  /// descriptor mode additionally requires an ungated free slot in the pool
  /// (a descriptor with nowhere to put a flit is not worth allocating).
  bool allocatable(sim::Cycle now) const {
    return is_idle() && now >= wake_ready_ && (pool_ == nullptr || pool_->has_free_slot());
  }

  /// Idle but inside (or just completing) a wake transition: the header
  /// PMOS turn-on cannot be aborted, so the gating mechanism must not
  /// re-gate the buffer until the cycle *after* it became allocatable —
  /// otherwise a policy that rotates its kept VC faster than the wake
  /// latency livelocks the port (no VC ever completes waking).
  bool in_wake_window(sim::Cycle now) const { return is_idle() && now <= wake_ready_; }

  int depth() const { return depth_; }
  int occupancy() const {
    return pool_ != nullptr ? pool_->occupancy(pool_vc_) : static_cast<int>(count_);
  }
  bool empty() const { return occupancy() == 0; }
  /// Cannot accept a flit right now: ring at depth (partitioned) or the
  /// pool has no free slot (descriptor mode — a conforming upstream's
  /// slot-credit check makes that unreachable).
  bool full() const {
    return pool_ != nullptr ? !pool_->has_free_slot() : occupancy() >= depth_;
  }

  Dir route() const { return route_; }
  /// Dateline VC class the resident packet needs at the *next* router's
  /// input (recorded with the route at RC; always 0 on single-class
  /// topologies).
  int next_class() const { return next_class_; }
  PacketId packet() const { return packet_; }

  // --- power transitions (driven by the gate controller) -------------------
  /// Idle -> Recovery during cycle `now`. Precondition: empty Idle buffer.
  void gate(sim::Cycle now) {
    if (pool_ != nullptr)
      throw std::logic_error(
          "VcBuffer::gate: descriptors over a shared pool are never gated (gate slots instead)");
    if (state_ != VcState::Idle) throw std::logic_error("VcBuffer::gate: not Idle");
    if (count_ != 0) throw std::logic_error("VcBuffer::gate: buffer not empty");
    state_ = VcState::Recovery;
    ++gate_transitions_;
    if (gated_counter_ != nullptr) ++*gated_counter_;
    if (tracker_ != nullptr) tracker_->note_state(false, now);
  }

  /// Number of Idle->Recovery transitions so far: each one switches the
  /// header PMOS and costs virtual-Vdd charge/discharge energy (the
  /// break-even concern of NBTI-aware power gating, [19]).
  std::uint64_t gate_transitions() const { return gate_transitions_; }

  /// Recovery -> Idle; allocatable after wakeup_latency cycles. No-op when
  /// already powered.
  void wake(sim::Cycle now) {
    if (state_ != VcState::Recovery) return;
    state_ = VcState::Idle;
    if (gated_counter_ != nullptr) --*gated_counter_;
    wake_ready_ = now + wakeup_latency_;
    if (tracker_ != nullptr) tracker_->note_state(true, now);
  }

  // --- allocation lifecycle (driven by the upstream VA stage) --------------
  /// Idle -> Active, reserving the buffer for `packet`. The route is set
  /// later, when the head flit arrives and RC runs.
  void allocate(PacketId packet, sim::Cycle now) {
    if (!allocatable(now)) throw std::logic_error("VcBuffer::allocate: not allocatable");
    state_ = VcState::Active;
    packet_ = packet;
    if (busy_counter_ != nullptr) ++*busy_counter_;
  }

  /// Records the RC result for the resident packet (head-flit arrival).
  void set_route(Dir route) { route_ = route; }
  void set_next_class(int next_class) { next_class_ = next_class; }

  // --- datapath -------------------------------------------------------------
  /// Buffer write (BW stage). Precondition: Active, not full, flit belongs
  /// to the allocated packet.
  void push(const Flit& flit);

  const Flit& front() const {
    if (pool_ != nullptr) return pool_->front(pool_vc_);
    if (count_ == 0) throw std::logic_error("VcBuffer::front: empty");
    return ring_[head_];
  }

  /// Dequeues the head flit; on tail, releases the buffer (Active -> Idle).
  Flit pop();

  // --- checkpoint/restore ----------------------------------------------------
  /// Saves the FIFO contents (front-first) and the allocation/power state.
  /// `load` expects the freshly constructed (Idle, empty) buffer with its
  /// counters already attached: it rebuilds the ring and replays the state
  /// onto the busy/gated counters, but does NOT touch the stress tracker —
  /// tracker accumulators are serialized separately by the owning port.
  void save(sim::SnapshotWriter& w) const {
    w.u64(count_);
    for (std::size_t i = 0; i < count_; ++i)
      snapshot_save(w, ring_[(head_ + i) % ring_.size()]);
    w.u8(static_cast<std::uint8_t>(state_));
    w.u64(static_cast<std::uint64_t>(wake_ready_));
    w.u64(packet_);
    w.i64(static_cast<int>(route_));
    w.i64(next_class_);
    w.b(tail_seen_);
    w.u64(gate_transitions_);
  }
  void load(sim::SnapshotReader& r) {
    const std::uint64_t n = r.u64();
    if (n > ring_.size())
      throw sim::SnapshotError("VcBuffer: snapshot holds " + std::to_string(n) +
                               " flits, buffer depth is " + std::to_string(ring_.size()));
    head_ = 0;
    count_ = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < count_; ++i) ring_[i] = snapshot_load_flit(r);
    state_ = static_cast<VcState>(r.u8());
    wake_ready_ = static_cast<sim::Cycle>(r.u64());
    packet_ = r.u64();
    route_ = static_cast<Dir>(r.i64());
    next_class_ = static_cast<int>(r.i64());
    tail_seen_ = r.b();
    gate_transitions_ = r.u64();
    if (state_ == VcState::Active && busy_counter_ != nullptr) ++*busy_counter_;
    if (state_ == VcState::Recovery && gated_counter_ != nullptr) ++*gated_counter_;
  }

  /// Structural-fault drain: drops every buffered flit and force-releases
  /// an Active buffer to Idle without waiting for a tail (the purged packet
  /// will never complete). Returns the number of flits dropped; no-op on
  /// non-Active buffers.
  int purge() {
    // Descriptor mode: drain this VC's slot chain back onto the pool's free
    // list (Gated/Waking slots are untouched — they hold no flits and keep
    // recovering through the purge). Each released slot's flits are counted
    // here exactly once; the caller rolls them into fault.dropped_flits.
    const int dropped =
        pool_ != nullptr ? pool_->purge_vc(pool_vc_) : static_cast<int>(count_);
    head_ = 0;
    count_ = 0;
    tail_seen_ = false;
    if (state_ == VcState::Active) {
      state_ = VcState::Idle;
      if (busy_counter_ != nullptr) --*busy_counter_;
    }
    packet_ = 0;
    route_ = Dir::Local;
    next_class_ = 0;
    return dropped;
  }

 private:
  int depth_;
  sim::Cycle wakeup_latency_;
  // Fixed-capacity ring FIFO: head_ indexes the oldest flit, count_ flits
  // are live. Depth is a hardware constant, so no growth path exists.
  std::vector<Flit> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  VcState state_ = VcState::Idle;
  sim::Cycle wake_ready_ = 0;
  PacketId packet_ = 0;
  Dir route_ = Dir::Local;
  int next_class_ = 0;
  bool tail_seen_ = false;
  std::uint64_t gate_transitions_ = 0;
  nbti::StressTracker* tracker_ = nullptr;
  int* busy_counter_ = nullptr;
  int* gated_counter_ = nullptr;
  SharedBufferPool* pool_ = nullptr;  ///< non-null: descriptor mode
  int pool_vc_ = 0;                   ///< this descriptor's chain in the pool
};

}  // namespace nbtinoc::noc
