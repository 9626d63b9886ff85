#pragma once
// Multi-year aging forecast built on the long-term model.
//
// The simulation measures each buffer's NBTI duty cycle over a (short)
// window; assuming the workload is stationary, Eq.1 extrapolates the Vth
// trajectory over device lifetime. This is how the paper converts its
// duty-cycle tables into the "net NBTI Vth saving up to 54.2%" headline.

#include <string>
#include <vector>

#include "nbtinoc/nbti/model.hpp"

namespace nbtinoc::nbti {

/// One buffer's forecast inputs.
struct BufferAgingInput {
  double initial_vth_v = 0.180;
  double alpha = 1.0;  ///< measured NBTI duty cycle (stress probability)
};

struct BufferForecast {
  double initial_vth_v = 0.0;
  double delta_vth_v = 0.0;
  double final_vth_v = 0.0;
  double saving_vs_always_on = 0.0;  ///< 1 - dVth(alpha)/dVth(1)
};

class AgingForecaster {
 public:
  AgingForecaster(const NbtiModel& model, OperatingPoint op) : model_(&model), op_(op) {}

  /// Forecast after `years` of operation at the measured duty cycle.
  BufferForecast forecast(const BufferAgingInput& input, double years) const;

  std::vector<BufferForecast> forecast_bank(const std::vector<BufferAgingInput>& inputs,
                                            double years) const;

  /// Years until the buffer's dVth crosses `dvth_budget_v`
  /// (NbtiModel::seconds_to_shift). Returns `max_years` if not crossed
  /// before then.
  double lifetime_years(const BufferAgingInput& input, double dvth_budget_v,
                        double max_years = 30.0) const;

  /// Equivalent age: the stress time t_eq at duty `alpha` that produces the
  /// given accumulated shift (NbtiModel::seconds_to_shift, the closed form
  /// read backwards in t). Enables epoch-wise aging under a *changing* duty
  /// cycle: each epoch maps the accumulated shift back to an equivalent age
  /// at the epoch's duty, then advances by the epoch length. Returns 0 for
  /// dvth <= 0 or alpha <= 0, and `max_seconds` if the shift is not reached
  /// before then at this alpha.
  double equivalent_age_seconds(double dvth_v, double alpha, double initial_vth_v,
                                double max_seconds = 40.0 * 365.25 * 24 * 3600) const;

  /// One aging epoch: advances an accumulated shift by `epoch_seconds` of
  /// operation at duty `alpha` (equivalent-age method). alpha <= 0 freezes
  /// the shift (full recovery periods neither heal nor grow the long-term
  /// interface-trap component here — a conservative simplification).
  double advance_dvth(double dvth_v, double alpha, double epoch_seconds,
                      double initial_vth_v) const;

  const NbtiModel& model() const { return *model_; }

  static double years_to_seconds(double years) { return years * 365.25 * 24.0 * 3600.0; }

 private:
  const NbtiModel* model_;
  OperatingPoint op_;
};

}  // namespace nbtinoc::nbti
