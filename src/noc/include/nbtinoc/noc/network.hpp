#pragma once
// The full network: topology, routers, NIs, links, and the per-cycle
// schedule. The link pattern, router count, and per-router port count all
// come from the pluggable Topology (mesh / torus / ring / concentrated
// mesh, see topology.hpp); the cycle schedule below is topology-agnostic.
//
// Cycle schedule (one step() call):
//   1. pre-VA gating: every (upstream, downstream-input-port) pair runs the
//      installed IGateController, and the Up_Down link delivers the command
//      to the downstream port in the same cycle (decide + apply, no channel)
//   2. VA stage of every router
//   3. SA + ST stage of every router (flits depart onto links)
//   4. link delivery: arriving flits are buffer-written, credits drained
//   5. NI injection side: VA + serialization + traffic generation
//   6. controller post-cycle hook (sensor refresh, Down_Up update)
// NBTI stress accounting is event-driven (StressTracker lazy mode): buffers
// notify their trackers at gate/wake transitions, and readers fence with
// sync_stress_accounting() — so an idle mesh pays O(transitions), not
// O(routers × ports × VCs), per cycle.
// A flit therefore needs three cycles per hop (BW/RC, VA/SA, ST/LT),
// matching the paper's 3-stage pipeline.

#include <array>
#include <memory>
#include <vector>

#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/gate.hpp"
#include "nbtinoc/noc/network_interface.hpp"
#include "nbtinoc/noc/router.hpp"
#include "nbtinoc/noc/topology.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/sim/active_set.hpp"
#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/sim/fault_plan.hpp"
#include "nbtinoc/sim/stat_registry.hpp"

namespace nbtinoc::noc {

/// Execution engines for Network::run(). Both are bit-identical in every
/// observable (stats, duty cycles, RNG streams); they differ only in how
/// much work each simulated cycle costs:
///  - kStepped:   literal per-cycle execution of every component — the
///                reference every differential test compares against.
///  - kActiveSet: event-driven — only routers/NIs with provable work are
///                stepped each cycle; wake events (channel deliveries,
///                source fires, reply posts) re-insert parked components,
///                and a fully parked fabric jumps straight to its next
///                event (heap wake, controller epoch, structural kill).
enum class SchedulerMode { kStepped, kActiveSet };

class Network {
 public:
  explicit Network(NocConfig config);

  // Non-copyable, non-movable: components hold stable cross-pointers.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const NocConfig& config() const { return config_; }
  /// Terminals (tiles / NIs) — the id space of Flit::src/dst and the
  /// traffic layer, on every topology.
  int nodes() const { return config_.nodes(); }
  /// Routers — equals nodes() except on the concentrated mesh.
  int num_routers() const { return static_cast<int>(routers_.size()); }
  const Topology& topology() const { return *topo_; }

  Router& router(NodeId id) { return *routers_.at(static_cast<std::size_t>(id)); }
  const Router& router(NodeId id) const { return *routers_.at(static_cast<std::size_t>(id)); }
  NetworkInterface& ni(NodeId id) { return *nis_.at(static_cast<std::size_t>(id)); }
  const NetworkInterface& ni(NodeId id) const { return *nis_.at(static_cast<std::size_t>(id)); }

  /// Installs the NBTI gating policy host (non-owning). Pass nullptr to
  /// restore the built-in always-on baseline.
  void set_gate_controller(IGateController* controller);
  IGateController& gate_controller() { return *controller_; }

  /// Installs the fault injector (non-owning; nullptr to remove) — the one
  /// install point: the gate controller reads it through fault_injector().
  /// Control faults may drop or corrupt (in range) the gate commands
  /// delivered to the ports the plan targets, and wake handshakes there may
  /// fail — the flit/credit datapath is never touched by them. Structural
  /// faults (plan().structural) are permanent data-plane kills: the schedule
  /// is validated and sorted here, and each kill is applied at the start of
  /// exactly its cycle in every scheduler mode (see apply_structural_faults).
  void set_fault_injector(sim::FaultInjector* injector);
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// Installs the traffic source for one node (owning).
  void set_traffic_source(NodeId node, std::unique_ptr<ITrafficSource> source);

  /// Fans the offered-load observer out to every NI (non-owning; nullptr to
  /// remove). The sink sees each packet any source offers, pre-filtering —
  /// the in-run trace-capture hook (core::RunnerOptions::capture_trace).
  void set_trace_sink(ITraceSink* sink) {
    for (auto& ni : nis_) ni->set_trace_sink(sink);
  }

  /// Advances one cycle.
  void step();
  /// Advances `cycles` cycles. Under kActiveSet, parked components are not
  /// stepped and fully parked stretches are skipped in closed form
  /// (bit-identical results).
  void run(sim::Cycle cycles);
  /// Runs `warmup` cycles with stress accounting frozen, then `measure`
  /// cycles with accounting enabled.
  void run_with_warmup(sim::Cycle warmup, sim::Cycle measure);

  /// Freezes/unfreezes NBTI accounting on every buffer (warmup fence).
  /// Flushes pending lazy intervals first, so cycles are attributed by when
  /// they elapsed, not by when the fence was toggled.
  void set_measuring(bool measuring);

  /// Flushes the event-driven NBTI accounting of every buffer through the
  /// current cycle. run(), set_measuring() and duty_cycles_percent() call
  /// this themselves; call it explicitly before reading trackers() directly
  /// after manual step() loops. Const: logically the trackers' observable
  /// counts never change, only their internal lazy representation.
  void sync_stress_accounting() const;

  const sim::Clock& clock() const { return clock_; }
  sim::StatRegistry& stats() { return stats_; }
  const sim::StatRegistry& stats() const { return stats_; }

  /// NBTI duty cycles (percent) of one input port's VC bank.
  std::vector<double> duty_cycles_percent(NodeId node, Dir input_port) const;

  /// Conservation check: all flits accepted by NIs were eventually ejected
  /// or are still somewhere in flight. True when nothing is in flight.
  bool drained() const;

  // --- structural (data-plane) faults ----------------------------------------
  /// Flits physically removed by structural-fault drains so far — the
  /// -Δ term of the invariant checker's conservation audit.
  std::uint64_t dropped_flits() const { return dropped_flits_total_; }
  /// Cycle of the next pending structural kill (kCycleNever when none) —
  /// the fence the active-set scheduler's full-park jump never crosses.
  sim::Cycle next_structural_cycle() const { return next_structural_cycle_; }

  // --- execution engines (sim::ActiveSet, sim::EventHorizon) -----------------
  /// Selects the execution engine. Defaults to kStepped (load_state and
  /// step()-level tests expect literal per-cycle execution);
  /// core::run_experiment defaults to kActiveSet via RunnerOptions.
  /// Entering kActiveSet installs channel push hooks and marks every
  /// component active (the first retire pass parks what it can); leaving
  /// removes the hooks.
  void set_scheduler_mode(SchedulerMode mode);
  SchedulerMode scheduler_mode() const { return scheduler_mode_; }

  // --- active-set introspection (oracle tests, invariant checker) ------------
  /// Membership of the active set for the *next* cycle to execute (the
  /// retire pass of the previous step populated it; wake-heap entries due
  /// later are not yet visible). A component outside is parked: provably at
  /// a local fixed point until a wake event re-inserts it.
  bool router_active(NodeId id) const { return active_routers_.contains(id); }
  bool ni_active(NodeId t) const { return active_nis_.contains(t); }
  /// Membership during the most recently executed active-set cycle.
  bool router_stepped(NodeId id) const { return stepped_routers_.contains(id); }
  bool ni_stepped(NodeId t) const { return stepped_nis_.contains(t); }

  /// True when every live input port of router `id` sits at its gating
  /// fixed point (port_gating_fixed_point), the clause the park condition
  /// requires. Each policy's decide() is a no-op on such a port while no
  /// traffic heads toward it (derived in ARCHITECTURE.md §10), so skipping
  /// the decide calls of a parked router is bit-exact.
  bool router_gating_fixed_point(NodeId id) const;

  struct SchedulerStats {
    std::uint64_t cycles_executed = 0;  ///< active-set cycles actually stepped
    std::uint64_t router_steps = 0;     ///< sum over cycles of active routers
    std::uint64_t ni_steps = 0;         ///< sum over cycles of active NIs
  };
  const SchedulerStats& scheduler_stats() const { return scheduler_stats_; }

  /// Wakes terminal `t`'s NI no later than max(at, now + 1) — the hook for
  /// cross-source events no channel carries (ReplyBoard posts a reply to a
  /// possibly parked server). No-op outside kActiveSet mode.
  void wake_terminal_at(NodeId t, sim::Cycle at);

  /// How often run() jumped a fully parked fabric ahead and how many cycles
  /// it elided (monotonic over the network's lifetime).
  const sim::SkipStats& skip_stats() const { return skip_stats_; }

  // --- checkpoint/restore ----------------------------------------------------
  /// Serializes every observable bit of network state: the clock, the stat
  /// registry, routers (buffers, allocations, stress accumulators,
  /// fairness pointers), NIs, all in-flight channel payloads, the gating
  /// record, the structural-kill cursor and the traffic sources. Scheduler
  /// bookkeeping (active sets, wake ring/heap, skip stats) is NOT saved: it
  /// is reconstructed exactly by re-entering the scheduler mode after load
  /// (see ARCHITECTURE.md §12).
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores a snapshot into this freshly built network. Must run in
  /// kStepped mode (the construction default), after set_fault_injector and
  /// set_traffic_source wiring, and *before* set_scheduler_mode — loading
  /// rebuilds channel queues underneath any push hooks. Structural kills
  /// already applied in the saved run are re-applied to the fresh topology
  /// (route-table regeneration only; the drained state comes from the
  /// snapshot itself).
  void load_state(sim::SnapshotReader& r);

  /// Flits currently crossing any flit channel (router-router links plus
  /// NI injection/ejection channels).
  std::size_t flits_in_flight() const;
  /// Flits resident anywhere past injection: in-flight on channels plus
  /// buffered in router input VCs. The invariant checker's census.
  std::size_t flits_resident() const;

 private:
  void gating_stage();
  /// One router's slice of the gating stage (decide + Up_Down delivery for
  /// every port/vnet/class) — shared by the full walk and the active-set
  /// scheduler. A port at rest is skipped whole: its controller has decided
  /// it before, holds no decisions, no control fault targets it, it sits at
  /// its gating fixed point, and no new traffic heads toward it.
  void gating_stage_for(NodeId id, sim::Cycle now);
  /// The per-port clause of the gating fixed point, read by both the park
  /// test and the gating stage's skip: no VC busy, every (vnet, class)
  /// record of the port agrees, the port is all-gated under an active
  /// record (everything gateable in Recovery or the pool's whole shared
  /// region gated, no wake in flight) or has nothing gated under an inactive
  /// one, and a pool under an active record is not credit-starved — besides
  /// the traffic bit, the only input the slot policies read there.
  bool port_gating_fixed_point(NodeId id, Dir port) const;
  /// The whole-port traffic signal of input port `port`: a head waiting for
  /// VA toward it in the upstream router, or a packet queued at the NI of a
  /// local port. False implies every (vnet, class) signal is false.
  bool new_traffic_toward(NodeId id, Dir port, sim::Cycle now) const;
  /// The injector of the control faults at this port: the installed one if
  /// its plan has control faults and targets the port (an empty target list
  /// targets all), nullptr otherwise — untargeted ports draw no fault RNG.
  sim::FaultInjector* injector_for(NodeId id, Dir port) const;
  /// The Up_Down link: delivers one decided command to input port `iu` in
  /// the cycle it was decided. With `faults` (a targeted port), the command
  /// may be dropped (the port holds its state) or corrupted in range —
  /// slot-modulus on a shared pool, a VC rotation otherwise — before it is
  /// applied.
  void deliver_gate_command(InputUnit& iu, GateCommand cmd, sim::Cycle now,
                            sim::FaultInjector* faults);

  // --- active-set scheduler ---------------------------------------------------
  /// One cycle stepping only active components (the kActiveSet step()).
  /// `end` is the cycle the current run() segment stops at (kCycleNever for
  /// a bare step()).
  void step_active(sim::Cycle end);
  /// End-of-cycle bookkeeping: parks / keeps each active component, wakes
  /// neighbors of busy routers, schedules source wakes, and rotates the
  /// wake ring into the next cycle's active sets. On a segment's last cycle
  /// (now + 1 == end) idle NIs stay active instead of asking their sources
  /// for a horizon: the next segment's first retire parks them.
  void retire_active_cycle(sim::Cycle now, sim::Cycle end);
  /// Moves heap wakes due at `now` into the active sets.
  void drain_wakes(sim::Cycle now);
  void wake_router_at(NodeId id, sim::Cycle at);
  void wake_ni_at(NodeId t, sim::Cycle at);
  /// Park precondition beyond busy_vcs == 0 (checked by the caller): not
  /// fault-pinned, inbound channels quiet, gating fixed point.
  bool router_park_eligible(NodeId id) const;
  void install_push_hooks();
  void remove_push_hooks();
  /// Recomputes pinned_routers_ from the injector's FaultPlan targets: a
  /// targeted router never parks, so every fault RNG draw stays at its
  /// stepped-schedule position and the rest of the fabric keeps skipping.
  void refresh_fault_pins();

  // --- structural-fault kill protocol ----------------------------------------
  /// Applies every scheduled kill whose cycle has arrived (start-of-cycle,
  /// before any pipeline stage), then runs one drain/quarantine pass.
  void apply_structural_faults(sim::Cycle now);
  /// The drain: dooms every packet whose position, committed move, or
  /// destination is illegal under the regenerated up*/down* orientation,
  /// purges it everywhere (channels, VC buffers, NI serialization), clears
  /// dead channels, quarantines dead ports/routers/NIs, rewrites every
  /// surviving credit counter from the conservation identity, re-runs RC
  /// for waiting heads, and audits the regenerated CDG for acyclicity.
  void purge_after_kill(sim::Cycle now);
  /// Rewrites credit counters of every surviving link and NI to
  /// depth - in-flight flits - in-flight credits - downstream occupancy.
  void restore_credits();

  /// Dense index of an input port: router × ports per router + port.
  std::size_t port_index(NodeId router, Dir port) const {
    return static_cast<std::size_t>(router) * static_cast<std::size_t>(config_.ports_per_router()) +
           static_cast<std::size_t>(port);
  }
  /// Last applied gating mode (gating_active) per (router, port, vnet,
  /// dateline class) — written by gating_stage, read by the fixed-point
  /// clause to pick which fixed point (all-gated vs all-idle) each port must
  /// satisfy. Single-class topologies collapse the class axis.
  std::size_t gating_record_index(NodeId router, Dir port, int vnet, int cls) const {
    return (port_index(router, port) * static_cast<std::size_t>(config_.num_vnets) +
            static_cast<std::size_t>(vnet)) *
               static_cast<std::size_t>(config_.vc_classes()) +
           static_cast<std::size_t>(cls);
  }

  NocConfig config_;
  sim::Clock clock_;
  sim::StatRegistry stats_;

  std::unique_ptr<Topology> topo_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::vector<std::unique_ptr<Channel<Flit>>> flit_channels_;
  std::vector<std::unique_ptr<Channel<Credit>>> credit_channels_;
  /// Receiver of each channel (parallel to flit_channels_ /
  /// credit_channels_), recorded at wiring time so the active-set push
  /// hooks know whom a delivery wakes.
  struct ChannelSink {
    bool is_ni = false;
    NodeId id = 0;
  };
  std::vector<ChannelSink> flit_sinks_;
  std::vector<ChannelSink> credit_sinks_;
  std::vector<std::unique_ptr<ITrafficSource>> sources_;

  AlwaysOnController baseline_controller_;
  IGateController* controller_ = nullptr;
  sim::FaultInjector* injector_ = nullptr;

  SchedulerMode scheduler_mode_ = SchedulerMode::kStepped;
  sim::SkipStats skip_stats_;
  std::vector<unsigned char> gating_record_;
  /// Per port_index: the installed controller has decided the port at least
  /// once. Until it has, the gating record is the previous controller's (or
  /// the construction default), so the port cannot be at rest.
  /// set_gate_controller and load_state clear it; never serialized.
  std::vector<unsigned char> decided_;

  // --- active-set scheduler state --------------------------------------------
  sim::ActiveSet active_routers_;   ///< cycle about to execute
  sim::ActiveSet active_nis_;
  sim::ActiveSet stepped_routers_;  ///< cycle just executed (introspection)
  sim::ActiveSet stepped_nis_;
  /// Short wake ring: [0] holds wakes for now + 1, [1] for now + 2 (the
  /// flit-link delay); rotated at retire. Anything farther goes to the heap.
  std::array<sim::ActiveSet, 2> wake_routers_;
  std::array<sim::ActiveSet, 2> wake_nis_;
  sim::WakeHeap wake_heap_;  ///< ids: [0, routers) routers, then terminals
  std::vector<unsigned char> pinned_routers_;  ///< fault-targeted, never park
  SchedulerStats scheduler_stats_;

  // --- structural-fault schedule ---------------------------------------------
  std::vector<sim::StructuralFault> structural_events_;  ///< sorted (cycle, router, port)
  std::size_t next_structural_ = 0;          ///< first unapplied event
  sim::Cycle next_structural_cycle_ = sim::kCycleNever;
  std::uint64_t dropped_flits_total_ = 0;    ///< flits removed by drains

  std::uint64_t packet_id_counter_ = 0;
};

}  // namespace nbtinoc::noc
