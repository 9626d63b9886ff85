#pragma once
// The mechanism/policy boundary for NBTI-aware VC power gating.
//
// The *mechanism* lives in the NoC: every cycle, the pre-VA logic of the
// upstream entity (router output port or network interface) decides a
// GateCommand, the Up_Down link delivers it within the same cycle, and the
// downstream input port obeys it.
// The *policies* (baseline / rr-no-sensor / sensor-wise...) live in the core
// library and implement IGateController.

#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {

class InputUnit;

/// What travels on the Up_Down link each cycle (paper §III-C): a VC id that
/// must be left idle (awake) plus an enable bit asserting its validity.
/// `gating_active` distinguishes an NBTI-aware upstream from the baseline
/// (no gating at all: downstream keeps every buffer powered).
///
/// With virtual networks, one command governs one vnet's VC subrange
/// ([first_vc, first_vc + range_vcs)); the pre-VA policy runs once per vnet
/// exactly like the paper's single-vnet case. range_vcs = -1 covers the
/// whole port. keep_vc is a *global* VC index.
///
/// Slot form: the form follows the port's buffer organization. On a
/// shared-pool port all indices address physical pool slots instead of
/// VCs. With gating_active, keep_vc names one Gated slot to wake
/// (kInvalidVc: none) and [first_vc, first_vc + range_vcs) names Free slots
/// to gate, in index order, while the pool's reservation headroom holds
/// (range_vcs 0 gates nothing). Without gating_active the command wakes
/// every Gated slot, mirroring the VC form's baseline.
struct GateCommand {
  bool gating_active = false;
  bool enable = false;  ///< keep_vc is valid: leave exactly that VC idle
  int keep_vc = kInvalidVc;
  int first_vc = 0;
  int range_vcs = -1;
};

inline void snapshot_save(sim::SnapshotWriter& w, const GateCommand& c) {
  w.b(c.gating_active);
  w.b(c.enable);
  w.i64(c.keep_vc);
  w.i64(c.first_vc);
  w.i64(c.range_vcs);
}

inline GateCommand snapshot_load_gate_command(sim::SnapshotReader& r) {
  GateCommand c;
  c.gating_active = r.b();
  c.enable = r.b();
  c.keep_vc = static_cast<int>(r.i64());
  c.first_vc = static_cast<int>(r.i64());
  c.range_vcs = static_cast<int>(r.i64());
  return c;
}

/// Identifies one upstream->downstream port pair by its downstream endpoint.
struct PortKey {
  NodeId router = 0;  ///< downstream router
  Dir port = Dir::Local;  ///< downstream input port
  auto operator<=>(const PortKey&) const = default;
};

/// Read-only view of the downstream input port's VC states, i.e. the
/// out-VC-state table the upstream router maintains. The view may be
/// restricted to one vnet's VC subrange; indices passed to the accessors are
/// then *local* to the subrange (the policy algorithms are range-agnostic).
class OutVcStateView {
 public:
  /// Whole-port view.
  explicit OutVcStateView(const InputUnit* iu) : iu_(iu) {}
  /// Subrange view covering [first_vc, first_vc + count).
  OutVcStateView(const InputUnit* iu, int first_vc, int count)
      : iu_(iu), first_vc_(first_vc), count_(count) {}

  // num_vcs() and state() are defined inline in input_unit.hpp, where
  // InputUnit is complete; include it to call them.
  inline int num_vcs() const;
  int first_vc() const { return first_vc_; }
  /// Maps a local index to the port-global VC id.
  int global_vc(int local) const { return first_vc_ + local; }

  inline VcState state(int local) const;
  bool is_idle(int local) const { return state(local) == VcState::Idle; }
  bool is_recovery(int local) const { return state(local) == VcState::Recovery; }
  bool is_active(int local) const { return state(local) == VcState::Active; }

  /// The viewed input unit — slot-level policies reach through to the
  /// port's shared pool, which the VC-state accessors cannot express.
  const InputUnit* unit() const { return iu_; }

 private:
  const InputUnit* iu_;
  int first_vc_ = 0;
  int count_ = -1;  ///< -1 = whole port
};

/// Per-network policy host. `decide` runs once per cycle per existing input
/// port *per virtual network* (the view is restricted to that vnet's VC
/// subrange), in the upstream pre-VA stage. The returned keep_vc is LOCAL to
/// the view; the network rebases it onto the port before applying.
/// `post_cycle` runs after stress accounting (sensor refresh / Down_Up
/// update point).
///
/// The network skips `decide` at a port *at rest*: no VC busy, every VC
/// gated under an active gating record (none gated under an inactive one),
/// no new traffic toward it, no control fault targeting it, and this
/// controller has decided it since it was installed (ARCHITECTURE.md §10).
/// So `decide` at such a port must return the command that changes nothing
/// and keep no state that a skipped call would have moved — unless
/// `holds_decisions()` is true, which turns the skip off. A decorator must
/// forward `holds_decisions()` to the controller it wraps.
class IGateController {
 public:
  virtual ~IGateController() = default;
  virtual GateCommand decide(const PortKey& key, const OutVcStateView& view, bool new_traffic,
                             sim::Cycle now) = 0;
  virtual void post_cycle(sim::Cycle now) { (void)now; }

  /// True when `decide` keeps per-port state between calls (a hysteresis
  /// cache whose refresh cycle a skipped call would leave stale): the
  /// network then calls it at every port every cycle, ports at rest
  /// included. The default, false, is the contract parking already assumes.
  virtual bool holds_decisions() const { return false; }

  /// Earliest cycle >= now at which this controller's `post_cycle` (or any
  /// other internal process — sensor refresh, fault machinery) does
  /// something observable while the fabric stays parked, or
  /// sim::kCycleNever.  Conservative answers (<= the true next event) are
  /// safe; the default pins the horizon to `now`, which disables full-park
  /// jumps for controllers that do not implement the query.
  virtual sim::Cycle next_event_cycle(sim::Cycle now) { return now; }

  virtual const char* name() const = 0;
};

/// The non-NBTI-aware baseline: no buffer is ever gated, so every VC sits at
/// a 100% NBTI duty cycle. Used as the reference for the Vth-saving table.
class AlwaysOnController final : public IGateController {
 public:
  GateCommand decide(const PortKey&, const OutVcStateView&, bool, sim::Cycle) override {
    return GateCommand{};  // gating_active = false
  }
  // Stateless and sensor-free: nothing ever happens on its own.
  sim::Cycle next_event_cycle(sim::Cycle) override { return sim::kCycleNever; }
  const char* name() const override { return "baseline"; }
};

}  // namespace nbtinoc::noc
