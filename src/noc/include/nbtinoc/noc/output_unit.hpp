#pragma once
// Output unit: the upstream-side bookkeeping for one router output port —
// the credit view of the downstream input port plus the VA/SA arbitration
// state. The VC *states* themselves are read through OutVcStateView over the
// downstream input unit (the out-VC-state table of paper Fig. 1).

#include "nbtinoc/noc/arbiter.hpp"
#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/credit_view.hpp"
#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {

class OutputUnit {
 public:
  /// `ejection` ports (Local) sink into the NI: no VCs, no credits.
  OutputUnit(Dir dir, const NocConfig& config, bool ejection);

  Dir dir() const { return dir_; }
  bool is_ejection() const { return ejection_; }

  /// The downstream input port's credit view: empty and unwired on an
  /// ejection port, wired by Router::wire_output on a cardinal one.
  CreditView& credit_view() { return credit_view_; }
  const CreditView& credit_view() const { return credit_view_; }

  /// VA arbitration over flattened (input port, VC) requesters.
  RoundRobinArbiter& va_arbiter() { return va_arbiter_; }
  /// Downstream-VC selection pointer (fair choice when several are awake,
  /// i.e. under the non-gating baseline).
  RoundRobinArbiter& vc_select() { return vc_select_; }
  /// SA arbitration over input ports.
  RoundRobinArbiter& sa_arbiter() { return sa_arbiter_; }

  // --- checkpoint/restore ----------------------------------------------------
  void save(sim::SnapshotWriter& w) const {
    credit_view_.save(w);
    w.u64(va_arbiter_.pointer());
    w.u64(vc_select_.pointer());
    w.u64(sa_arbiter_.pointer());
  }
  void load(sim::SnapshotReader& r) {
    credit_view_.load(r);
    va_arbiter_.set_pointer(static_cast<std::size_t>(r.u64()));
    vc_select_.set_pointer(static_cast<std::size_t>(r.u64()));
    sa_arbiter_.set_pointer(static_cast<std::size_t>(r.u64()));
  }

 private:
  Dir dir_;
  bool ejection_;
  CreditView credit_view_;
  RoundRobinArbiter va_arbiter_;
  RoundRobinArbiter vc_select_;
  RoundRobinArbiter sa_arbiter_;
};

}  // namespace nbtinoc::noc
