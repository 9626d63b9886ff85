#pragma once
// Deterministic fault injection for the gating control path.
//
// The paper's sensor-wise policy assumes a perfect control fabric: sensors
// always report plausible Vth values, the Up_Down/Down_Up links never lose
// a command, and a gated buffer always wakes within `wakeup_latency`. Real
// NBTI sensors age and fail along with the buffers they watch (OptGM; the
// flip-flop write-failure literature), so the simulator can inject faults
// into exactly that control plane and nothing else — the flit datapath is
// never corrupted, which is what lets the invariant checker demand zero
// flit loss under arbitrary fault storms.
//
// Fault taxonomy (all probabilities are per evaluation point):
//   sensor sites (one per VC buffer, evaluated once per Down_Up refresh
//   epoch of the owning port):
//     stuck    — the reading freezes at its value when the fault strikes
//     drifting — the reading gains `drift_step_v` every epoch
//     dead     — the reading pegs at `dead_reading_v` (a rail)
//     repair   — any faulty site returns to healthy (transient faults)
//   control links:
//     gate_cmd_drop — an Up_Down GateCommand is lost in flight (drawn once
//                     per decided command on a targeted port)
//     gate_cmd_flip — a delivered GateCommand is corrupted (keep_vc
//                     rotated within its vnet range / enable toggled on
//                     with an arbitrary in-range keep_vc; on a shared pool
//                     the wake slot rotates modulo the pool); corrupted
//                     commands stay well-formed, they are just *wrong*
//     down_up_drop  — one refresh epoch's Down_Up report is lost; the
//                     upstream keeps acting on stale readings
//   wake handshake:
//     wake_fail — a gated buffer misses its wakeup deadline; the wake is
//                 a no-op this cycle and is retried when the command is
//                 re-issued
//
// Determinism contract: a FaultInjector owns a dedicated Xoshiro256 stream
// seeded from {scenario, plan} alone, and every draw happens at a fixed
// point of the (deterministic) simulation schedule. A given
// {scenario, policy, plan} therefore replays bit-exactly — including under
// SweepRunner at any worker count, because each sweep point builds its own
// injector. An all-zero plan is never installed at all (`enabled()` is
// false), so zero-rate runs are byte-identical to runs without this
// subsystem.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/sim/stat_registry.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::sim {

/// Health of one sensor site as the fault process sees it.
enum class SensorFaultMode { kHealthy, kStuck, kDrifting, kDead };

/// One scheduled permanent *data-plane* failure. Unlike the probabilistic
/// control-plane processes below, structural faults are explicit events at
/// fixed cycles: both scheduler modes (stepped, active-set) apply them at
/// the start of exactly that cycle, which is what keeps the two bit-identical
/// through a kill.
struct StructuralFault {
  Cycle cycle = 0;  ///< applied at the start of this cycle
  int router = 0;   ///< router owning the failed resource
  /// Output direction of the link that dies (the reverse direction dies with
  /// it — a failed physical channel takes both wires). kWholeRouter (< 0)
  /// kills the router itself: all its links, ports and local terminals.
  int port = kWholeRouter;

  static constexpr int kWholeRouter = -1;

  bool kills_router() const { return port < 0; }
};

/// Declarative description of one fault storm. All rates default to zero;
/// a zero plan is a provable no-op (see golden_test).
struct FaultPlan {
  /// Extra salt folded into the injector seed, so one scenario can be
  /// replayed under several independent storms.
  std::uint64_t seed_salt = 0;

  // --- sensor-site fault process (per site, per refresh epoch) -------------
  double sensor_stuck_rate = 0.0;   ///< P(healthy -> stuck)
  double sensor_drift_rate = 0.0;   ///< P(healthy -> drifting)
  double sensor_death_rate = 0.0;   ///< P(healthy -> dead)
  double sensor_repair_rate = 0.0;  ///< P(faulty -> healthy)
  double drift_step_v = 0.002;      ///< added to a drifting reading per epoch
  double dead_reading_v = 0.0;      ///< rail a dead sensor reports

  // --- control-link faults -------------------------------------------------
  double gate_cmd_drop_rate = 0.0;  ///< per decided command on a targeted port
  double gate_cmd_flip_rate = 0.0;  ///< per command not dropped on a targeted port
  double down_up_drop_rate = 0.0;   ///< per port refresh epoch
  double wake_fail_rate = 0.0;      ///< per wake attempt on a gated buffer

  // --- fault locality ------------------------------------------------------
  /// Restricts the storm to these (router, input port) sites; empty (the
  /// default) means every site, the pre-locality behavior. Targeting is
  /// what lets the active-set scheduler keep parking the healthy part of
  /// the fabric: only targeted routers are pinned active.
  std::vector<std::pair<int, int>> targets;

  // --- structural (data-plane) faults --------------------------------------
  /// Permanent link / router kills at fixed cycles. Unordered here; the
  /// network sorts by (cycle, router, port) at install time so the apply
  /// order is deterministic regardless of how the plan was built.
  std::vector<StructuralFault> structural;

  /// True when the storm covers this (router, port) site (always true with
  /// an empty target list).
  bool targets_port(int node, int port) const;

  /// True when any *control-plane* rate is nonzero. Control faults are the
  /// probabilistic processes that pin targeted routers (which then never
  /// park); structural faults do not (they are fixed-cycle
  /// events the schedulers fence on explicitly).
  bool control_enabled() const;

  /// True when the plan schedules any structural kill.
  bool structural_enabled() const { return !structural.empty(); }

  /// True when installing an injector could ever change a run (control or
  /// structural). run_experiment only wires the injector when enabled.
  bool enabled() const { return control_enabled() || structural_enabled(); }

  /// Throws std::invalid_argument on rates outside [0,1] or non-finite
  /// voltage parameters.
  void validate() const;

  /// One-line human-readable summary of the nonzero rates.
  std::string describe() const;

  /// Uniform rate across every fault class — the bench sweep knob.
  static FaultPlan uniform(double rate, std::uint64_t seed_salt = 0);
};

/// Runtime half of the subsystem: owns the dedicated RNG stream plus the
/// per-site sensor fault state machines, and counts every injected event
/// into an optional StatRegistry under "fault.*" keys. The class is
/// noc-agnostic (plain node/port/vc ints) so it can live below the NoC in
/// the layer stack; the noc/core layers translate their types at the hook
/// sites.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled(); }

  /// Counter sink for fault events ("fault.gate_cmd_drops", ...). Pass
  /// nullptr to detach. Counting is side-effect-only: it never changes
  /// what the injector decides. All event keys are interned here once so
  /// the per-event hooks (which run inside the gating hot path) never hash
  /// a string.
  void bind_stats(StatRegistry* stats);

  // --- Up_Down link (noc::Network::deliver_gate_command, targeted ports) ---
  /// True: the command is lost in flight. Drawn once per decided command.
  bool drop_gate_command();
  /// True: corrupt the command. Drawn right after drop_gate_command, for
  /// commands it kept. `range_vcs` is the size of the command's vnet
  /// subrange (the pool's slot count for a slot-form command); on true,
  /// *keep_vc_shift in [0, range_vcs) is the rotation to apply to a valid
  /// keep_vc (or the absolute local VC to enable when the original command
  /// kept nothing awake). Corrupted commands remain structurally valid for
  /// the range.
  bool flip_gate_command(int range_vcs, int* keep_vc_shift);

  // --- wake handshake ------------------------------------------------------
  /// True: this cycle's wake of a gated buffer fails and must be retried.
  bool wake_fails();

  // --- Down_Up link (one call per port refresh epoch) ----------------------
  /// True: the whole report is lost; the port's readings stay stale.
  bool drop_down_up_report();

  // --- structural fault accounting (events applied by the network) ---------
  /// The network applies the kills itself (it owns the wiring); these hooks
  /// only count what happened so the "fault.*" counters tell the story.
  void count_link_kill();
  void count_router_kill();
  /// Flits purged from dead channels/buffers during a drain; the invariant
  /// checker reads the same total from the network side.
  void count_dropped_flits(std::uint64_t n);
  /// Whole packets purged mid-flight (their remaining flits are dropped at
  /// the source of truth, wherever they sit).
  void count_purged_packets(std::uint64_t n);
  /// Route-table regenerations triggered by structural faults.
  void count_route_regen();

  // --- sensor fault process ------------------------------------------------
  /// Steps the fault state machine of every site of one port by one epoch.
  /// Call exactly once per *delivered* refresh epoch, before reading.
  void advance_sensor_epoch(int node, int port, int num_vcs);
  /// The reading the faulty sensor actually reports for `true_reading`.
  /// Pure given the site state (no RNG draw).
  double corrupt_reading(int node, int port, int vc, double true_reading);
  SensorFaultMode sensor_mode(int node, int port, int vc) const;
  /// Number of sites currently not healthy.
  std::size_t faulty_sites() const;

  // --- checkpoint/restore ----------------------------------------------------
  /// Dynamic state only: the RNG stream and the per-site fault machines.
  /// The plan and the stat bindings come from reconstruction.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct SiteState {
    SensorFaultMode mode = SensorFaultMode::kHealthy;
    double stuck_value_v = 0.0;  ///< reading held while stuck
    bool stuck_latched = false;  ///< stuck_value_v captured yet?
    double drift_v = 0.0;        ///< accumulated drift while drifting
  };
  using SiteKey = std::tuple<int, int, int>;  ///< (node, port, vc)

  /// Indexes into handles_ (one per "fault.*" event counter).
  enum FaultStat : std::size_t {
    kGateCmdDrops = 0,
    kGateCmdFlips,
    kWakeFailures,
    kDownUpDrops,
    kSensorStuck,
    kSensorDrifting,
    kSensorDead,
    kSensorRepairs,
    kLinkKills,
    kRouterKills,
    kDroppedFlits,
    kPurgedPackets,
    kRouteRegens,
    kNumFaultStats,
  };

  void count(FaultStat stat, std::uint64_t delta = 1);

  FaultPlan plan_;
  util::Xoshiro256 rng_;
  StatRegistry* stats_ = nullptr;
  std::array<CounterHandle, kNumFaultStats> handles_{};
  std::map<SiteKey, SiteState> sites_;
};

}  // namespace nbtinoc::sim
