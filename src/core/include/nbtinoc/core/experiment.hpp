#pragma once
// Experiment runner: scenario + policy + workload -> duty cycles and Vth
// projections. This is the top of the public API; the benches and examples
// are thin wrappers over it.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/policy.hpp"
#include "nbtinoc/nbti/aging.hpp"
#include "nbtinoc/power/power_model.hpp"
#include "nbtinoc/sim/scenario.hpp"
#include "nbtinoc/traffic/benchmarks.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/patterns.hpp"
#include "nbtinoc/traffic/trace.hpp"

namespace nbtinoc::core {

/// Workload description: a synthetic pattern at the scenario's injection
/// rate (Tables II/III), a benchmark mix (Table IV), a recorded NBTITRACE
/// replay, or a datacenter aggregate population.
struct Workload {
  enum class Kind { kSynthetic, kBenchmarkMix, kTrace, kDatacenter } kind = Kind::kSynthetic;
  traffic::PatternKind pattern = traffic::PatternKind::kUniform;
  traffic::BenchmarkMix mix;       ///< used when kind == kBenchmarkMix
  /// kTrace: shared read-only mapping replayed zero-copy; every run, sweep
  /// worker and fleet shard holding this Workload shares the one mapping.
  std::shared_ptr<const traffic::TraceFile> trace;
  traffic::DatacenterProfile datacenter;  ///< used when kind == kDatacenter
  std::uint64_t seed_salt = 0;     ///< extra salt for per-iteration traffic streams

  static Workload synthetic(traffic::PatternKind pattern = traffic::PatternKind::kUniform);
  static Workload benchmark_mix(traffic::BenchmarkMix mix, std::uint64_t seed_salt = 0);
  /// Replay of a captured trace. The runner validates the trace's node and
  /// vnet counts against the scenario before installing it (errors quote
  /// the trace digest); trace records are draw-free, so seed_salt does not
  /// perturb the offered load (it still salts the digest).
  static Workload trace_replay(std::shared_ptr<const traffic::TraceFile> trace);
  /// Heavy-tailed on/off user aggregate (DatacenterAggregateSource).
  static Workload datacenter_aggregate(traffic::DatacenterProfile profile,
                                       std::uint64_t seed_salt = 0);
};

/// Per-input-port measurement.
struct PortResult {
  std::vector<double> duty_percent;   ///< NBTI-duty-cycle per VC
  std::vector<double> initial_vth_v;  ///< PV-sampled silicon
  std::vector<std::uint64_t> gate_transitions;  ///< header-PMOS switch count per VC
  int most_degraded = 0;              ///< sensor-reported MD VC
};

struct RunResult {
  sim::Scenario scenario;
  PolicyKind policy = PolicyKind::kBaseline;
  std::map<noc::PortKey, PortResult> ports;

  /// "fault.*" counters (measurement window, like every other counter).
  /// Empty when no fault injection was enabled; to_json omits it then, so
  /// zero-rate output is byte-identical to a build without the subsystem.
  std::map<std::string, std::uint64_t> fault_counters;
  /// Invariant violations found when RunnerOptions::check_invariants was
  /// on (empty otherwise — and hopefully then too).
  std::vector<std::string> invariant_violations;

  // Counters below cover the measurement window only (warmup excluded).
  std::uint64_t packets_offered = 0;  ///< policy-independent (same traffic seed)
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_ejected = 0;
  std::uint64_t flits_forwarded = 0;      ///< router-to-router link traversals
  std::uint64_t flits_ejected_router = 0; ///< router-to-NI ejections
  std::uint64_t va_grants = 0;            ///< router VA grants (+ NI grants separately)
  std::uint64_t ni_va_grants = 0;
  std::vector<std::uint64_t> router_flits_out;  ///< per-router movement counts
  std::uint64_t total_gate_transitions = 0;     ///< whole-NoC header-PMOS switches
  double avg_packet_latency = 0.0;
  double throughput_flits_per_cycle_per_node = 0.0;

  const PortResult& port(noc::NodeId node, noc::Dir dir) const;
  /// Duty (percent) of the most degraded VC of the given port.
  double md_duty(noc::NodeId node, noc::Dir dir) const;
};

struct RunnerOptions {
  nbti::NbtiParams nbti;          ///< model parameters (calibrated internally)
  PolicyConfig policy;            ///< kind is overridden per run() call
  /// Non-empty: use these per-port Vth vectors (e.g. aged silicon from a
  /// lifetime study) instead of sampling fresh process variation.
  std::map<noc::PortKey, std::vector<double>> initial_vths;
  /// Control-path fault storm. All-zero (the default) is a provable no-op:
  /// no injector is even constructed, so results are byte-identical to a
  /// faultless build. The injector seed derives from the scenario and
  /// faults.seed_salt alone — deterministic at any sweep worker count.
  sim::FaultPlan faults;
  /// Run the whole-network InvariantChecker every cycle (no flit in a gated
  /// buffer, credit conservation, no flit loss, no deadlock). Violations
  /// are reported in RunResult::invariant_violations. The run steps cycle by
  /// cycle under the selected scheduler, so under kActiveSet the checker
  /// also audits that every parked component is provably idle. Roughly
  /// doubles run time; meant for tests and fault studies, not duty-cycle
  /// production.
  bool check_invariants = false;
  /// Execution engine (ARCHITECTURE.md §10). Results are bit-identical
  /// under both (pinned by the golden and differential tests); kStepped,
  /// the literal per-cycle loop, is there to time or debug the reference.
  noc::SchedulerMode scheduler = noc::SchedulerMode::kActiveSet;

  // --- checkpoint/restore (ARCHITECTURE.md §12) -------------------------------
  /// Pause the run at this absolute cycle (warmup and measurement share one
  /// clock: 0 <= snapshot_at <= warmup + measure) and serialize the complete
  /// simulation into *snapshot_out (framed bytes, see sim/snapshot.hpp).
  /// The run then continues to completion, so the returned RunResult is
  /// bit-identical to a run without the snapshot. Incompatible with
  /// check_invariants (the per-cycle checker carries no snapshot state).
  std::optional<sim::Cycle> snapshot_at;
  std::string* snapshot_out = nullptr;
  /// Bytes of a snapshot previously produced by snapshot_at under the same
  /// scenario / policy / workload / fault configuration. The runner rebuilds
  /// the identical object graph, restores the saved state and runs only the
  /// remaining cycles — bit-identical to the uninterrupted run under every
  /// scheduler mode. Version or configuration mismatches throw
  /// sim::SnapshotError naming both digests. Incompatible with
  /// check_invariants and with snapshot_at.
  std::optional<std::string> resume_from;

  /// Non-null: record the run's offered load into this trace (the network's
  /// ITraceSink — every packet each source offers, before the NI's
  /// self-traffic/unroutable filters, warmup included). Observation only:
  /// it consumes no RNG and perturbs nothing, so the capturing run's result
  /// is bit-identical to an uncaptured run — and replaying the capture
  /// (Workload::trace_replay over traffic::TraceFile::from_trace) reproduces
  /// that same result bit for bit. Incompatible with resume_from: a resumed
  /// run cannot observe the cycles that ran before the snapshot, so the
  /// capture would silently be a suffix.
  traffic::Trace* capture_trace = nullptr;
};

/// Runs one scenario under one policy. PV seed and traffic seed derive from
/// the scenario alone, so different policies see identical silicon and an
/// identical offered load.
RunResult run_experiment(const sim::Scenario& scenario, PolicyKind policy,
                         const Workload& workload, const RunnerOptions& options = {});

/// Reads a finished run off its network and controller: per-port duty
/// cycles, silicon, MD VC and gate transitions, the network counters and,
/// with `faults_installed`, the "fault.*" counters. run_experiment's last
/// step; a hand-wired run (a wrapped controller, a lockstep harness) reports
/// through it exactly as run_experiment would.
RunResult collect_result(const sim::Scenario& scenario, PolicyKind policy,
                         const noc::Network& network, const PolicyGateController& controller,
                         bool faults_installed);

/// Human-readable digest of one run's configuration: every scenario field,
/// the policy, the workload and every RunnerOptions field that shapes the
/// object graph or any RNG stream (the scheduler mode is deliberately
/// absent — results are identical under both). run_experiment embeds it in
/// snapshot frames and rejects a resume under any other digest; the fleet
/// digest is built from one per (policy, workload) cell.
std::string config_digest(const sim::Scenario& scenario, PolicyKind policy,
                          const Workload& workload, const RunnerOptions& options);

/// Serializes a run to JSON (scenario, per-port duty cycles / initial Vth /
/// MD VC, network counters) for downstream plotting and analysis tools.
std::string to_json(const RunResult& result);

/// Assembles the energy-model inputs from a run: flit-movement counters plus
/// the powered/gated buffer-cycle totals summed from every port's duty
/// cycles. Allocator grants count VA (router + NI) and SA (= buffer reads).
power::NocActivity activity_of(const RunResult& result);

/// The network a scenario describes: topology, routing, concentration,
/// buffer organization, wake latency, pipeline depth, and buffer depth /
/// packet length / shared reserve scaled from flits to phits. The one
/// scenario -> NocConfig mapping: run_experiment builds its network from it,
/// and anything sampling silicon for a scenario (sample_network_vths) must
/// too, so the sampled ports and bank sizes match the run's. Throws
/// std::invalid_argument for router_stages < 3.
noc::NocConfig noc_config_of(const sim::Scenario& scenario);

/// Builds the operating point / PV config / calibrated model a scenario
/// implies — exposed for benches that post-process duty cycles via Eq. 1.
nbti::OperatingPoint operating_point_of(const sim::Scenario& scenario);
nbti::PvConfig pv_config_of(const sim::Scenario& scenario);
nbti::NbtiModel calibrated_model_of(const sim::Scenario& scenario,
                                    const nbti::NbtiParams& params = {});

}  // namespace nbtinoc::core
