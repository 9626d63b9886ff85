#pragma once
// PolicyGateController: the host that wires the paper's machinery into a
// network — per-input-port NBTI sensor banks (downstream side), the pre-VA
// policy algorithms (upstream side), and the process-variation Vth sampling
// that both share.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "nbtinoc/core/policy.hpp"
#include "nbtinoc/nbti/model.hpp"
#include "nbtinoc/nbti/process_variation.hpp"
#include "nbtinoc/nbti/sensor.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::core {

/// Per-port sensor health tracking: when fault injection is active, the
/// controller watches the Down_Up reports of every port the fault plan
/// targets and demotes ports whose sensors stop making sense. A quarantined
/// port runs the sensor-less policy of its granularity (rr-no-sensor, or
/// rr-slot under sensor-wise-slot-md: still gates, no longer trusts
/// readings) until its sensors behave again — the graceful half of graceful
/// degradation.
struct HealthConfig {
  /// Plausibility window for a measured Vth (volts). Readings outside it
  /// are treated as sensor failure evidence, not as data. The defaults
  /// bracket any reachable {PV sample + NBTI shift + noise} in this model.
  double plausible_min_v = 0.05;
  double plausible_max_v = 0.60;
  /// Consecutive epochs with an implausible reading before quarantine.
  int implausible_epochs_to_quarantine = 2;
  /// Consecutive epochs without a delivered Down_Up report before the
  /// staleness watchdog quarantines the port.
  int staleness_epochs = 4;
  /// Consecutive healthy epochs (delivered report, all readings plausible)
  /// before a quarantined port is trusted again.
  int healthy_epochs_to_recover = 4;
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kSensorWise;
  /// Cycles between advances of the rr-no-sensor active candidate
  /// ("changed cyclically on a time basis").
  sim::Cycle rr_rotation_period = 1;
  /// Pre-VA decisions are recomputed only every this-many cycles and held
  /// in between (hysteresis). 1 reproduces the paper's per-cycle decision;
  /// larger values cut header-PMOS gating transitions at the cost of
  /// occasionally parking the awake VC on a now-busy buffer (latency).
  sim::Cycle decision_period = 1;
  nbti::SensorConfig sensor;
  HealthConfig health;

  /// Throws std::invalid_argument with an actionable message on
  /// configurations that would divide by zero or stall the machinery
  /// (zero rotation/decision periods, zero-length sensor epochs).
  void validate() const;
};

/// Samples one initial Vth per gateable buffer (VC bank entry, or pool slot
/// under the shared organization — same count either way) for every existing
/// input port of a network with the given config. The sampling order is fixed (router id
/// ascending, then port N,S,E,W,L), so the same seed always yields the same
/// silicon — the paper's requirement that every policy sees identical Vth
/// vectors on the same {architecture, traffic} scenario.
std::map<noc::PortKey, std::vector<double>> sample_network_vths(const noc::NocConfig& config,
                                                                const nbti::PvConfig& pv,
                                                                std::uint64_t seed);

class PolicyGateController final : public noc::IGateController {
 public:
  /// `model` must outlive the controller: every per-port sensor bank keeps
  /// a pointer into it. The rvalue overloads are deleted so a temporary
  /// (e.g. `NbtiModel::calibrated(...)` inline) is a compile error instead
  /// of a dangling pointer.
  PolicyGateController(noc::Network& network, PolicyConfig config, const nbti::NbtiModel& model,
                       nbti::OperatingPoint op, const nbti::PvConfig& pv, std::uint64_t pv_seed);
  PolicyGateController(noc::Network& network, PolicyConfig config, nbti::NbtiModel&& model,
                       nbti::OperatingPoint op, const nbti::PvConfig& pv,
                       std::uint64_t pv_seed) = delete;

  /// Builds the controller on explicitly provided per-port Vth vectors
  /// (e.g. partially aged silicon in a lifetime study) instead of sampling
  /// fresh process variation. The map must cover exactly the existing input
  /// ports: a missing port, or a key naming a port or router the network
  /// lacks, throws std::invalid_argument.
  PolicyGateController(noc::Network& network, PolicyConfig config, const nbti::NbtiModel& model,
                       nbti::OperatingPoint op,
                       std::map<noc::PortKey, std::vector<double>> initial_vths,
                       std::uint64_t noise_seed = 0x5e7502ULL);
  PolicyGateController(noc::Network& network, PolicyConfig config, nbti::NbtiModel&& model,
                       nbti::OperatingPoint op,
                       std::map<noc::PortKey, std::vector<double>> initial_vths,
                       std::uint64_t noise_seed = 0x5e7502ULL) = delete;

  // IGateController
  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override;
  /// True while the hysteresis cache is in use (decision_period > 1 on
  /// partitioned buffers): a skipped decide would leave a held command's
  /// refresh cycle stale, so the network decides every port every cycle.
  bool holds_decisions() const override { return !held_.empty(); }
  void post_cycle(sim::Cycle now) override;
  /// Full-park horizon: with a fault injector installed the fault
  /// processes draw RNG every cycle, so the horizon is pinned to `now`
  /// (no jump ever engages); otherwise the only autonomous
  /// events are the per-port sensor refresh epochs, so the horizon is the
  /// post-cycle fence: the earliest next_refresh_cycle() across ports.
  sim::Cycle next_event_cycle(sim::Cycle now) override;
  const char* name() const override;

  /// Installs this controller on the network it was built for. The fault
  /// injector is the network's (noc::Network::set_fault_injector): with one
  /// installed, every Down_Up refresh of a targeted port runs through its
  /// sensor fault process and arms the port's health watchdog; with none,
  /// the controller's behavior is bit-identical to a build without this
  /// subsystem.
  void attach() { network_->set_gate_controller(this); }

  /// True while the port's sensors are distrusted and the rr fallback runs.
  bool quarantined(const noc::PortKey& key) const { return context(key).quarantined; }
  std::size_t quarantined_ports() const;
  /// The reading every sensor policy acts on: the last delivered Down_Up
  /// report. Equals sensors(key).measured_vth(vc) after every epoch unless
  /// the installed fault plan targets the port (then possibly stale or
  /// corrupted).
  double effective_vth(const noc::PortKey& key, int vc) const;

  /// Checkpoint of the controller's dynamic state: per-port sensor banks
  /// (noise RNG included), last-delivered effective readings, health-ladder
  /// counters, the hysteresis cache and the post-cycle fence. Initial Vth
  /// vectors and stat handles are reconstructed by the constructor, so the
  /// loading controller must be built from the same scenario.
  void save(sim::SnapshotWriter& w) const;
  void load(sim::SnapshotReader& r);

  PolicyKind kind() const { return config_.kind; }
  const nbti::NbtiSensorBank& sensors(const noc::PortKey& key) const;
  const std::vector<double>& initial_vths(const noc::PortKey& key) const;
  /// Most degraded VC over the whole port (reporting).
  int most_degraded(const noc::PortKey& key) const;

 private:
  struct PortContext {
    noc::PortKey key;
    std::vector<double> initial_vths;
    nbti::NbtiSensorBank sensors;
    /// What the upstream router believes the readings are: the last
    /// *delivered* Down_Up report, the only readings a decision uses. Every
    /// epoch copies the fresh readings in intact, except on a port the
    /// fault plan targets, where faulted_epoch drops or corrupts them.
    std::vector<double> effective_vths;
    bool quarantined = false;
    int epochs_since_report = 0;  ///< staleness watchdog input
    int implausible_streak = 0;   ///< consecutive epochs with bad readings
    int healthy_streak = 0;       ///< consecutive clean epochs (recovery)

    /// Delivers the bank's current readings unchanged.
    void deliver_intact();
  };

  /// Dense index of a port: router × ports per router + port.
  std::size_t slot_of(const noc::PortKey& key) const {
    return static_cast<std::size_t>(key.router) * static_cast<std::size_t>(ports_per_router_) +
           static_cast<std::size_t>(key.port);
  }
  /// The context of an existing port; std::out_of_range for any other key.
  const PortContext& context(const noc::PortKey& key) const;
  /// Index into held_ of the decision for the view starting at `first_vc`.
  std::size_t held_index(const noc::PortKey& key, int first_vc) const {
    return slot_of(key) * static_cast<std::size_t>(network_->config().total_vcs()) +
           static_cast<std::size_t>(first_vc);
  }

  noc::GateCommand compute(const noc::PortKey& key, const noc::OutVcStateView& view,
                           bool new_traffic, sim::Cycle now);
  /// The policy deciding `ctx`'s port: the configured one, or for a sensor
  /// policy on a quarantined port the sensor-less one of its granularity.
  PolicyKind acting_kind(const PortContext& ctx) const;
  /// True when an enabled injector's plan covers this port.
  bool fault_targets(const noc::PortKey& key) const;
  /// One Down_Up refresh epoch of `key` under the installed injector:
  /// fault-process step, report delivery/corruption, health bookkeeping.
  void faulted_epoch(const noc::PortKey& key, PortContext& ctx);

  noc::Network* network_;
  PolicyConfig config_;
  std::string name_;
  /// Shared (DAMQ) organization: sensor banks index pool slots instead of
  /// VC bank entries, slot policies dispatch, and the VC-indexed hysteresis
  /// cache is bypassed.
  bool shared_ = false;
  int ports_per_router_;
  /// Per-port contexts indexed by slot_of(key), empty where the network has
  /// no input port; ascending slots are ascending (router, port) keys, the
  /// order every walk (and the snapshot) uses.
  std::vector<std::optional<PortContext>> ports_;
  std::size_t num_ports_ = 0;  ///< existing input ports (engaged slots)

  /// Earliest sensor-refresh epoch across ports: fault-free post_cycle
  /// calls before this cycle are provable no-ops and return in O(1), and
  /// next_event_cycle reports it as the controller's horizon. Set from the
  /// banks at construction; only post_cycle's walk moves a bank's epoch
  /// afterwards, and it refreshes this fence as it goes.
  sim::Cycle post_cycle_fence_ = sim::kCycleNever;

  // Interned stat handles (fault.quarantined_port_cycles is bumped every
  // cycle per quarantined port — a hot-path site under fault injection).
  sim::CounterHandle h_quarantined_cycles_;
  sim::CounterHandle h_quarantines_;
  sim::CounterHandle h_recoveries_;

  /// Scratch for sensor-rank's view-local readings (sized once; the
  /// per-decision fill must not allocate).
  std::vector<double> degradation_scratch_;

  /// Hysteresis cache, indexed by slot_of(key) × total VCs + the view's
  /// first VC (its vnet/class subrange start). Sized only when decisions
  /// are held (decision_period > 1, partitioned buffers); a decision
  /// counts as cached, and is snapshotted, once valid.
  struct HeldDecision {
    noc::GateCommand command;
    sim::Cycle held_until = 0;
    bool valid = false;
  };
  std::vector<HeldDecision> held_;
};

}  // namespace nbtinoc::core
