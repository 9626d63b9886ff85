#pragma once
// The lifetime engine: the one epoch loop behind every multi-year study
// (lifetime.hpp), exact or accelerated.
//
// Each epoch's only product is the per-buffer duty-cycle distribution, and
// as long as the silicon the policy reacts to has not drifted appreciably
// since the last measurement, that distribution is unchanged (the
// schedulers are deterministic functions of {silicon, workload
// statistics}). The engine exploits this: it simulates a short
// cycle-accurate measurement window, then advances the closed-form
// reaction–diffusion ΔVth (equivalent-age method, AgingForecaster) across
// epoch after epoch of virtual time *without touching the network*,
// re-measuring only when the predicted Vth drift since the last
// measurement crosses a configurable tolerance. Weeks-to-months of virtual
// time then cost, per buffer per epoch, one closed-form inverse of Eq. 1
// (the equivalent age, capped at 40 years) and one Eq. 1 evaluation instead
// of measure_cycles_per_epoch simulated cycles — the ≥50x wall-clock lever
// gated by BENCH_lifetime.json.
//
// Setting remeasure_tolerance_v = 0 forces a measurement every epoch: the
// exact study. Its measured epoch k is one run_experiment call (warmup
// measure/5, epoch-salted traffic, the silicon of a k-epoch study as
// initial_vths), pinned by lifetime_engine_test's composition tests — the
// tolerance is an approximation knob, not a different model.
//
// Silicon is sampled over noc_config_of(scenario), so every topology and
// buffer organization run_experiment accepts ages here too.

#include "nbtinoc/core/lifetime.hpp"

namespace nbtinoc::core {

struct LifetimeEngineOptions {
  int epochs = 12;
  double years_per_epoch = 0.25;
  sim::Cycle measure_cycles_per_epoch = 60'000;
  /// Re-measure once any buffer's ΔVth has grown by at least this much
  /// (volts) since the silicon of the last measurement window. 0 measures
  /// every epoch (exact); larger values trade trajectory fidelity for
  /// wall-clock. The default re-measures after ~2 mV of drift — well under
  /// the PV sigma, so the policies' sensor rankings stay faithful.
  double remeasure_tolerance_v = 0.002;
  /// Hard cap on consecutive closed-form epochs, so a tolerance set too
  /// loose cannot extrapolate an entire study from one window.
  int max_extrapolated_epochs = 32;
  RunnerOptions runner;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

struct LifetimeEngineResult {
  /// Per-epoch trajectory of the sampled port plus the full final silicon
  /// (one bank per run_experiment port). Extrapolated epochs carry the
  /// duty distribution of the last measurement window.
  LifetimeResult study;
  int measured_epochs = 0;       ///< cycle-accurate windows actually simulated
  int extrapolated_epochs = 0;   ///< epochs advanced in closed form only
};

/// The measure/advance loop. Construction precomputes the fresh silicon;
/// run() executes the epochs. Measured epoch k salts the workload with
/// 0x11d0 * (k + 1): its offered load depends on the epoch index alone,
/// whichever epochs the tolerance chooses to measure.
class LifetimeEngine {
 public:
  LifetimeEngine(sim::Scenario scenario, PolicyKind policy, Workload workload,
                 noc::PortKey sampled_port, LifetimeEngineOptions options = {});

  LifetimeEngineResult run();

 private:
  /// One cycle-accurate window on the current silicon (epoch-salted
  /// traffic); refreshes the cached duty distribution.
  void measure(int epoch);
  /// Largest ΔVth growth of any buffer since the last measurement.
  double drift_since_measure() const;

  sim::Scenario scenario_;
  PolicyKind policy_;
  Workload workload_;
  noc::PortKey sampled_port_;
  LifetimeEngineOptions options_;

  std::map<noc::PortKey, std::vector<double>> fresh_;     ///< year-0 silicon
  std::map<noc::PortKey, std::vector<double>> dvth_;      ///< accumulated shift
  std::map<noc::PortKey, std::vector<double>> duty_;      ///< last measured duty (percent)
  std::map<noc::PortKey, std::vector<double>> dvth_at_measure_;
  int measured_epochs_ = 0;
  int extrapolated_epochs_ = 0;
};

}  // namespace nbtinoc::core
