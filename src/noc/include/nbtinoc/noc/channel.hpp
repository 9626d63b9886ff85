#pragma once
// Fixed-latency pipelined channel. Models flit links and credit return
// wires: payloads pushed at cycle t with delay d become visible exactly at
// cycle t+d, in push order. (The paper's Up_Down control wire has zero
// delay and is a call, Network::deliver_gate_command, not a channel.)

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/ring_queue.hpp"

namespace nbtinoc::noc {

template <typename T>
class Channel {
 public:
  /// Push observer, fired with the payload's delivery cycle. The active-set
  /// scheduler installs these to wake a channel's receiver exactly when the
  /// payload becomes deliverable; no hook (the default) keeps the stepped
  /// hot path at a single branch.
  using PushHook = std::function<void(sim::Cycle ready_at)>;

  explicit Channel(sim::Cycle delay = 1) : delay_(delay) {}

  sim::Cycle delay() const { return delay_; }

  void push(T payload, sim::Cycle now) {
    const sim::Cycle ready_at = now + delay_;
    in_flight_.emplace_back(ready_at, std::move(payload));
    if (on_push_) on_push_(ready_at);
  }

  /// Pops the oldest payload whose delivery time has been reached.
  std::optional<T> pop_ready(sim::Cycle now) {
    if (in_flight_.empty() || in_flight_.front().first > now) return std::nullopt;
    T payload = std::move(in_flight_.front().second);
    in_flight_.pop_front();
    return payload;
  }

  /// Peeks without consuming; nullptr when nothing is deliverable.
  const T* peek_ready(sim::Cycle now) const {
    if (in_flight_.empty() || in_flight_.front().first > now) return nullptr;
    return &in_flight_.front().second;
  }

  bool empty() const { return in_flight_.empty(); }
  std::size_t in_flight() const { return in_flight_.size(); }
  void clear() { in_flight_.clear(); }

  /// Removes every in-flight payload matching `pred`, preserving the order
  /// of the survivors; returns how many were removed. The structural-fault
  /// drain uses this to purge a doomed packet's flits wherever they sit.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    const std::size_t n = in_flight_.size();
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      auto item = in_flight_.take_front();
      if (pred(item.second))
        ++removed;
      else
        in_flight_.push_back(std::move(item));
    }
    return removed;
  }

  /// Visits every in-flight payload (delivery cycle, payload) in queue
  /// order — the invariant checker's window into link occupancy.
  template <typename Fn>
  void for_each_in_flight(Fn&& fn) const {
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const auto& [at, payload] = in_flight_[i];
      fn(payload, at);
    }
  }

  // --- checkpoint/restore ----------------------------------------------------
  /// Serializes the in-flight queue (delivery cycles + payloads, via the
  /// caller's payload codec). `load` rebuilds the queue directly, so it must
  /// run before any push hooks are installed (scheduler-mode entry
  /// re-installs them and re-discovers the payloads).
  template <typename SavePayload>
  void save(sim::SnapshotWriter& w, SavePayload&& save_payload) const {
    w.u64(in_flight_.size());
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const auto& [at, payload] = in_flight_[i];
      w.u64(static_cast<std::uint64_t>(at));
      save_payload(w, payload);
    }
  }
  template <typename LoadPayload>
  void load(sim::SnapshotReader& r, LoadPayload&& load_payload) {
    in_flight_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto at = static_cast<sim::Cycle>(r.u64());
      in_flight_.emplace_back(at, load_payload(r));
    }
  }

  /// Installs (or removes, with an empty function) the push observer.
  void set_push_hook(PushHook hook) { on_push_ = std::move(hook); }

 private:
  sim::Cycle delay_;
  // Pooled ring: steady-state push/pop never touch the allocator (see
  // util::RingQueue); capacity tracks the link's occupancy high-water mark.
  util::RingQueue<std::pair<sim::Cycle, T>> in_flight_;
  PushHook on_push_;
};

}  // namespace nbtinoc::noc
