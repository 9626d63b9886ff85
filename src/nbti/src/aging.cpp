#include "nbtinoc/nbti/aging.hpp"

#include <algorithm>

namespace nbtinoc::nbti {

BufferForecast AgingForecaster::forecast(const BufferAgingInput& input, double years) const {
  const double seconds = years_to_seconds(years);
  OperatingPoint op = op_;
  op.vth_v = input.initial_vth_v;
  BufferForecast out;
  out.initial_vth_v = input.initial_vth_v;
  out.delta_vth_v = model_->delta_vth(input.alpha, seconds, op);
  out.final_vth_v = out.initial_vth_v + out.delta_vth_v;
  const double ref = model_->delta_vth(1.0, seconds, op);
  out.saving_vs_always_on = ref > 0.0 ? 1.0 - out.delta_vth_v / ref : 0.0;
  return out;
}

std::vector<BufferForecast> AgingForecaster::forecast_bank(
    const std::vector<BufferAgingInput>& inputs, double years) const {
  std::vector<BufferForecast> out;
  out.reserve(inputs.size());
  for (const auto& input : inputs) out.push_back(forecast(input, years));
  return out;
}

double AgingForecaster::lifetime_years(const BufferAgingInput& input, double dvth_budget_v,
                                       double max_years) const {
  OperatingPoint op = op_;
  op.vth_v = input.initial_vth_v;
  const double seconds = model_->seconds_to_shift(dvth_budget_v, input.alpha, op);
  return std::min(seconds / years_to_seconds(1.0), max_years);
}

double AgingForecaster::equivalent_age_seconds(double dvth_v, double alpha,
                                               double initial_vth_v, double max_seconds) const {
  if (dvth_v <= 0.0 || alpha <= 0.0) return 0.0;
  OperatingPoint op = op_;
  op.vth_v = initial_vth_v;
  return std::min(model_->seconds_to_shift(dvth_v, alpha, op), max_seconds);
}

double AgingForecaster::advance_dvth(double dvth_v, double alpha, double epoch_seconds,
                                     double initial_vth_v) const {
  if (alpha <= 0.0 || epoch_seconds <= 0.0) return dvth_v;
  OperatingPoint op = op_;
  op.vth_v = initial_vth_v;
  const double t_eq = equivalent_age_seconds(dvth_v, alpha, initial_vth_v);
  const double advanced = model_->delta_vth(alpha, t_eq + epoch_seconds, op);
  // The shift never shrinks across an epoch (long-term component).
  return advanced > dvth_v ? advanced : dvth_v;
}

}  // namespace nbtinoc::nbti
