#pragma once
// The pre-roll frontier every stochastic traffic source shares.
//
// A source draws one Bernoulli (or a fixed group of draws) per cycle in
// cycle order. To answer next_event_cycle() without running the NI every
// cycle, it draws those per-cycle outcomes ahead of time, stopping at the
// first fire; draws made when a packet is consumed (its destination) stay
// at consumption time. The RNG stream therefore has the same order however
// often the source is polled, and skipping to the answer is exact.
//
// Two words hold the state: every cycle below rolled_until() has been
// drawn, and next_fire() is the earliest drawn fire not yet consumed
// (kCycleNever if none). No other fire exists below rolled_until().

#include <algorithm>

#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::traffic {

class PrerollFrontier {
 public:
  /// How far past `now` horizon() rolls looking for the next fire. At the
  /// paper's lowest rates (p ~ 1e-2) the expected gap is ~100 cycles, so one
  /// probe nearly always finds it; if it does not, every rolled cycle is
  /// known fire-free, so the frontier is a safe horizon and the caller
  /// re-asks there.
  static constexpr sim::Cycle kLookaheadCycles = 4096;

  sim::Cycle rolled_until() const { return rolled_until_; }
  sim::Cycle next_fire() const { return next_fire_; }
  bool fired() const { return next_fire_ != sim::kCycleNever; }

  /// Draws cycles from the frontier through `limit` (inclusive) in order,
  /// stopping after the first fire. `draw()` makes one cycle's draws and
  /// returns whether that cycle fires.
  template <typename Draw>
  void roll(sim::Cycle limit, Draw&& draw) {
    while (next_fire_ == sim::kCycleNever && rolled_until_ <= limit) {
      if (draw()) next_fire_ = rolled_until_;
      ++rolled_until_;
    }
  }

  /// Moves the frontier to `cycle` without drawing, for cycles the stepped
  /// source draws nothing at: Bernoulli(p <= 0) consumes no RNG state, and
  /// a request/reply source serving a reply skips its request draw.
  void skip_to(sim::Cycle cycle) { rolled_until_ = std::max(rolled_until_, cycle); }

  /// Consumes the pending fire if it is due by `now`.
  bool take(sim::Cycle now) {
    if (next_fire_ > now) return false;  // covers kCycleNever
    next_fire_ = sim::kCycleNever;
    return true;
  }

  /// The next_event_cycle answer: the pending fire, or after
  /// `roll_to(now + kLookaheadCycles)` the fire that found, or when it found
  /// none the frontier (conservative, never past a real fire).
  template <typename RollTo>
  sim::Cycle horizon(sim::Cycle now, RollTo&& roll_to) {
    if (next_fire_ == sim::kCycleNever) roll_to(now + kLookaheadCycles);
    return next_fire_ != sim::kCycleNever ? std::max(now, next_fire_) : rolled_until_;
  }

  void save(sim::SnapshotWriter& w) const {
    w.u64(rolled_until_);
    w.u64(next_fire_);
  }
  void load(sim::SnapshotReader& r) {
    rolled_until_ = r.u64();
    next_fire_ = r.u64();
  }

 private:
  sim::Cycle rolled_until_ = 0;
  sim::Cycle next_fire_ = sim::kCycleNever;
};

}  // namespace nbtinoc::traffic
