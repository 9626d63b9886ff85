#pragma once
// Credit view: the upstream entity's record of one downstream input port,
// the credit half of the out-VC-state table (paper Fig. 1). Every cardinal
// OutputUnit owns one, and every NetworkInterface one for its router's
// Local port. Partitioned buffers: one credit counter per downstream VC.
// Shared buffers: the downstream slot pool keeps per-VC charges and the
// view delegates to it (zero-skew, like OutVcStateView); the counters stay
// at depth. With outstanding_v = flits in flight toward VC v + credits in
// flight back for it + flits resident in it downstream, the identity
//   partitioned:  credits_v + outstanding_v == depth
//   shared:       charged_v == outstanding_v
// holds on every live link. The structural-fault drain re-imposes it with
// restore(); InvariantChecker recounts it every cycle.

#include <stdexcept>
#include <string>
#include <vector>

#include "nbtinoc/noc/input_unit.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {

class CreditView {
 public:
  /// `num_vcs` counters at `depth` (zero on an ejection port); unwired.
  CreditView(int num_vcs, int depth)
      : depth_(depth), credits_(static_cast<std::size_t>(num_vcs), depth) {}

  /// Binds the downstream input port (it must outlive the view); its slot
  /// pool, if any, takes over the credit state.
  void wire(InputUnit* downstream) {
    downstream_ = downstream;
    pool_ = downstream != nullptr ? downstream->pool() : nullptr;
  }
  InputUnit* downstream() const { return downstream_; }

  /// May a flit go out on downstream VC `vc` this cycle? Partitioned: a
  /// credit remains. Shared: the pool's reservation check.
  bool can_send(int vc) const {
    return pool_ != nullptr ? pool_->can_send(vc) : credits_[static_cast<std::size_t>(vc)] > 0;
  }
  /// A flit went out on `vc`; throws when no credit is left.
  void send(int vc) {
    if (!can_send(vc))
      throw std::logic_error("CreditView::send: no credit for VC " + std::to_string(vc));
    if (pool_ != nullptr)
      pool_->charge(vc);
    else
      --credits_[static_cast<std::size_t>(vc)];
  }
  /// A credit for `vc` came back; throws on a credit past depth, or, under
  /// a pool, on one that was never charged.
  void receive_credit(int vc) {
    if (pool_ != nullptr) return pool_->uncharge(vc);
    int& c = credits_.at(static_cast<std::size_t>(vc));
    if (c >= depth_) throw std::logic_error("CreditView::receive_credit: credit overflow");
    ++c;
  }
  /// Credits held for `vc` (bounds-checked).
  int credits(int vc) const { return credits_.at(static_cast<std::size_t>(vc)); }

  // --- structural-fault drain (never used on the healthy path) ---------------
  /// Re-imposes the identity on `vc` given its `outstanding` flits: the
  /// counter becomes depth - outstanding, or the pool charge outstanding.
  void restore(int vc, int outstanding) {
    if (pool_ != nullptr)
      pool_->set_charged(vc, outstanding);
    else
      credits_.at(static_cast<std::size_t>(vc)) = depth_ - outstanding;
  }
  /// Closes a dead output for good: zero counters and, under a pool, every
  /// VC charged to depth (charged >= reserve closes the reserved path,
  /// overcommit == shared_capacity >= shared_limit the shared one).
  void block() {
    for (std::size_t v = 0; v < credits_.size(); ++v) {
      credits_[v] = 0;
      if (pool_ != nullptr) pool_->set_charged(static_cast<int>(v), depth_);
    }
  }

  // --- checkpoint/restore (the counters; a pool saves its own charges) ------
  void save(sim::SnapshotWriter& w) const {
    for (int c : credits_) w.i64(c);
  }
  void load(sim::SnapshotReader& r) {
    for (int& c : credits_) c = static_cast<int>(r.i64());
  }

 private:
  InputUnit* downstream_ = nullptr;
  SharedBufferPool* pool_ = nullptr;
  int depth_;
  std::vector<int> credits_;
};

}  // namespace nbtinoc::noc
