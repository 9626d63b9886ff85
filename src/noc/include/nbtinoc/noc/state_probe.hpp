#pragma once
// Port state probe: records the per-cycle power/allocation state of one
// input port's VC bank while the caller drives Network::step() manually.
// Useful for debugging and for *seeing* what a policy does — the ASCII
// timeline makes the difference between rr-no-sensor's rotating awake VC
// and sensor-wise's parked recovery immediately visible.

#include <string>
#include <vector>

#include "nbtinoc/noc/gate.hpp"
#include "nbtinoc/noc/network.hpp"

namespace nbtinoc::noc {

class PortStateProbe {
 public:
  struct Record {
    sim::Cycle cycle = 0;
    std::string states;  ///< one char per VC: I(dle) / A(ctive) / R(ecovery)
  };

  /// Probes `key` on `network`; throws if the port does not exist.
  PortStateProbe(const Network& network, PortKey key);

  /// Appends one sample at the network's current cycle.
  void sample();

  const std::vector<Record>& records() const { return records_; }
  PortKey key() const { return key_; }

  /// Per-VC fraction of sampled cycles spent in each state.
  struct StateShares {
    double idle = 0.0;
    double active = 0.0;
    double recovery = 0.0;
  };
  StateShares shares(int vc) const;

  /// Renders the last `max_cycles` samples as one row per VC:
  ///   VC0 IIIAA RRRRR ...
  /// Columns are cycles (oldest left), grouped in blocks of 10.
  std::string ascii_timeline(std::size_t max_cycles = 80) const;

  /// CSV rows "cycle,vc0,vc1,..." with one state letter per cell.
  void save_csv(const std::string& path) const;

 private:
  const Network* network_;
  PortKey key_;
  int num_vcs_;
  std::vector<Record> records_;
};

/// Whole-network simulation invariant checker — the safety net under fault
/// injection. Call check() (or check_or_throw()) after each Network::step();
/// every call asserts, at the cycle boundary:
///
///   1. no flit sits in a gated (Recovery) buffer — faults may cost
///      latency and duty cycle, never data;
///   2. credits are conserved on every link: upstream credits + flits in
///      flight + credits in flight + downstream occupancy == buffer depth,
///      per VC, for router-router links and the NI injection path;
///   3. no flit is lost: the cycle-over-cycle change of the resident flit
///      census equals flits injected minus flits ejected minus flits
///      accountably dropped by structural-fault drains (self-resyncs
///      across StatRegistry resets such as the warmup fence);
///   4. no deadlock: whenever flits are resident, some global movement
///      counter must advance within `deadlock_threshold` cycles;
///   5. every input unit's work masks (InputUnit::pending_va, routed), which
///      VA and SA read instead of scanning, match a recount from its VC
///      states.
///
/// Under the active-set scheduler (Network::scheduler_mode() ==
/// SchedulerMode::kActiveSet) a sixth audit runs: every *parked* component
/// (absent from the next cycle's active set) must be provably idle — no
/// busy input VC, gating at its fixed point, and no inbound link payload
/// deliverable soon enough that skipping the component could change
/// behavior. A parked component holding imminent work is the scheduler's
/// one unforgivable bug, so it is reported as a violation here. In the same
/// mode every *settled* live input port (Network::port_settled, which the
/// gating stage passes by without a test) must pass the literal at-rest
/// test (Network::port_at_rest).
/// The checker is read-only and deterministic; it never perturbs the run.
class InvariantChecker {
 public:
  struct Options {
    /// Cycles of zero movement with flits resident before a deadlock is
    /// declared. Generous: at any offered load the NoC moves *something*
    /// every few cycles unless genuinely wedged.
    sim::Cycle deadlock_threshold = 4096;
    /// Recording stops after this many violations (the first one is what
    /// matters; the rest are usually cascade noise).
    std::size_t max_violations = 64;
  };

  struct Violation {
    sim::Cycle cycle = 0;
    std::string what;
  };

  explicit InvariantChecker(const Network& network);
  InvariantChecker(const Network& network, Options options);

  /// Runs every check at the network's current cycle; returns the number
  /// of new violations found.
  std::size_t check();
  /// check(), then throws std::runtime_error on the first violation found.
  void check_or_throw();

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::uint64_t cycles_checked() const { return cycles_checked_; }

 private:
  void record(sim::Cycle cycle, std::string what);
  void check_gated_buffers(sim::Cycle cycle);
  /// Every input unit's work masks (pending_va, routed) against a recount
  /// from its VC states.
  void check_work_masks(sim::Cycle cycle);
  /// Shared organization only: per-port slot conservation (free + occupied
  /// + gated + waking == pool size, recounted from the slot states), the
  /// occupied count against the per-VC chain census, and the overcommit
  /// accumulator against its defining sum over per-VC charges.
  void check_shared_pools(sim::Cycle cycle);
  void check_credit_conservation(sim::Cycle cycle);
  void check_flit_conservation(sim::Cycle cycle);
  void check_deadlock(sim::Cycle cycle);
  void check_active_set(sim::Cycle cycle);
  /// Every settled live input port against the literal at-rest test.
  void check_settled_ports(sim::Cycle cycle);

  const Network* network_;
  Options options_;
  std::vector<Violation> violations_;
  std::uint64_t cycles_checked_ = 0;

  // Flit-conservation deltas (self-resyncing across stat resets).
  bool census_valid_ = false;
  std::size_t last_resident_ = 0;
  std::uint64_t last_injected_ = 0;
  std::uint64_t last_ejected_ = 0;
  std::uint64_t last_dropped_ = 0;  ///< structural-fault drains (monotonic)

  // Deadlock watchdog.
  std::uint64_t last_movement_ = 0;
  sim::Cycle last_progress_cycle_ = 0;
  bool deadlock_reported_ = false;
};

}  // namespace nbtinoc::noc
