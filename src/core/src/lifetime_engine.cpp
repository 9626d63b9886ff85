#include "nbtinoc/core/lifetime_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nbtinoc::core {

void LifetimeEngineOptions::validate() const {
  if (epochs < 1) throw std::invalid_argument("LifetimeEngine: epochs < 1");
  if (!std::isfinite(years_per_epoch) || years_per_epoch <= 0.0)
    throw std::invalid_argument("LifetimeEngine: years_per_epoch must be finite and > 0");
  if (measure_cycles_per_epoch == 0)
    throw std::invalid_argument("LifetimeEngine: measure_cycles_per_epoch must be >= 1");
  if (!(remeasure_tolerance_v >= 0.0))
    throw std::invalid_argument(
        "LifetimeEngine: remeasure_tolerance_v must be >= 0 (use 0 to measure every epoch)");
  if (max_extrapolated_epochs < 1)
    throw std::invalid_argument("LifetimeEngine: max_extrapolated_epochs < 1");
}

LifetimeEngine::LifetimeEngine(sim::Scenario scenario, PolicyKind policy, Workload workload,
                               noc::PortKey sampled_port, LifetimeEngineOptions options)
    : scenario_(std::move(scenario)),
      policy_(policy),
      workload_(std::move(workload)),
      sampled_port_(sampled_port),
      options_(std::move(options)) {
  options_.validate();
  scenario_.warmup_cycles = options_.measure_cycles_per_epoch / 5;
  scenario_.measure_cycles = options_.measure_cycles_per_epoch;

  fresh_ = sample_network_vths(noc_config_of(scenario_), pv_config_of(scenario_),
                               scenario_.pv_seed());
  if (!fresh_.count(sampled_port_))
    throw std::invalid_argument("LifetimeEngine: sampled port does not exist");
  for (const auto& [key, bank] : fresh_) {
    dvth_[key].assign(bank.size(), 0.0);
    dvth_at_measure_[key].assign(bank.size(), 0.0);
  }
}

void LifetimeEngine::measure(int epoch) {
  RunnerOptions ropt = options_.runner;
  ropt.policy.kind = policy_;
  for (const auto& [key, bank] : fresh_) {
    auto& aged = ropt.initial_vths[key];
    aged.resize(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) aged[i] = bank[i] + dvth_.at(key)[i];
  }
  // Per-epoch traffic salt: every epoch sees a distinct stream with the same
  // statistics, and a measured epoch's load depends only on its index — so
  // epoch k of any study is one run_experiment call under this salt.
  Workload epoch_workload = workload_;
  epoch_workload.seed_salt ^= 0x11d0ULL * static_cast<std::uint64_t>(epoch + 1);
  const RunResult run = run_experiment(scenario_, policy_, epoch_workload, ropt);

  for (const auto& [key, bank] : fresh_) duty_[key] = run.ports.at(key).duty_percent;
  dvth_at_measure_ = dvth_;
  ++measured_epochs_;
}

double LifetimeEngine::drift_since_measure() const {
  double drift = 0.0;
  for (const auto& [key, shifts] : dvth_) {
    const auto& at_measure = dvth_at_measure_.at(key);
    for (std::size_t i = 0; i < shifts.size(); ++i)
      drift = std::max(drift, shifts[i] - at_measure[i]);
  }
  return drift;
}

LifetimeEngineResult LifetimeEngine::run() {
  const nbti::NbtiModel model = calibrated_model_of(scenario_, options_.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(scenario_));
  const double epoch_seconds = nbti::AgingForecaster::years_to_seconds(options_.years_per_epoch);

  LifetimeEngineResult out;
  out.study.sampled_port = sampled_port_;

  int previous_md = -1;
  int epochs_since_measure = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    const bool must_measure = measured_epochs_ == 0 ||
                              drift_since_measure() >= options_.remeasure_tolerance_v ||
                              epochs_since_measure >= options_.max_extrapolated_epochs;
    if (must_measure) {
      measure(epoch);
      epochs_since_measure = 0;
    } else {
      ++extrapolated_epochs_;
      ++epochs_since_measure;
    }

    // Advance every buffer by the epoch length at its (last measured) duty.
    for (auto& [key, shifts] : dvth_) {
      const auto& duty = duty_.at(key);
      for (std::size_t i = 0; i < shifts.size(); ++i)
        shifts[i] = forecaster.advance_dvth(shifts[i], duty[i] / 100.0, epoch_seconds,
                                            fresh_.at(key)[i]);
    }

    LifetimeEpoch record;
    record.years_elapsed = (epoch + 1) * options_.years_per_epoch;
    record.duty_percent = duty_.at(sampled_port_);
    record.vth_v.resize(dvth_.at(sampled_port_).size());
    for (std::size_t i = 0; i < record.vth_v.size(); ++i)
      record.vth_v[i] = fresh_.at(sampled_port_)[i] + dvth_.at(sampled_port_)[i];
    record.most_degraded = static_cast<int>(std::distance(
        record.vth_v.begin(), std::max_element(record.vth_v.begin(), record.vth_v.end())));
    if (previous_md >= 0 && record.most_degraded != previous_md) ++out.study.md_changes;
    previous_md = record.most_degraded;
    out.study.epochs.push_back(std::move(record));
  }

  const auto& final_vths = out.study.epochs.back().vth_v;
  out.study.final_worst_vth_v = *std::max_element(final_vths.begin(), final_vths.end());
  out.study.final_spread_v =
      out.study.final_worst_vth_v - *std::min_element(final_vths.begin(), final_vths.end());
  for (const auto& [key, bank] : fresh_) {
    auto& final_bank = out.study.final_vths[key];
    final_bank.resize(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) final_bank[i] = bank[i] + dvth_.at(key)[i];
  }
  out.measured_epochs = measured_epochs_;
  out.extrapolated_epochs = extrapolated_epochs_;
  return out;
}

}  // namespace nbtinoc::core
