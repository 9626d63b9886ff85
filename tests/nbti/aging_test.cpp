#include "nbtinoc/nbti/aging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::nbti {
namespace {

NbtiModel model() { return NbtiModel::calibrated(NbtiParams{}, OperatingPoint{}); }

constexpr double kFortyYears = 40.0 * 365.25 * 24 * 3600;

// The oracle for NbtiModel::seconds_to_shift: the two 80-step bisections
// over delta_vth that lifetime_years (in years) and equivalent_age_seconds
// (in seconds) ran before the closed-form inverse, kept verbatim.
double bisect_lifetime_years(const NbtiModel& m, const OperatingPoint& op, double alpha,
                             double dvth_budget_v, double max_years) {
  const auto dvth_at = [&](double years) {
    return m.delta_vth(alpha, AgingForecaster::years_to_seconds(years), op);
  };
  if (dvth_at(max_years) < dvth_budget_v) return max_years;
  double lo = 0.0;
  double hi = max_years;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (dvth_at(mid) < dvth_budget_v) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

double bisect_equivalent_age_seconds(const NbtiModel& m, const OperatingPoint& op, double dvth_v,
                                     double alpha, double max_seconds) {
  if (dvth_v <= 0.0 || alpha <= 0.0) return 0.0;
  if (m.delta_vth(alpha, max_seconds, op) <= dvth_v) return max_seconds;
  double lo = 0.0;
  double hi = max_seconds;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (m.delta_vth(alpha, mid, op) < dvth_v) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

/// One point of the oracle sweep.
struct Sample {
  int index = 0;
  double alpha = 0.0;
  double initial_vth_v = 0.0;
  double temperature_k = 0.0;
  double dvth_v = 0.0;
  double max_years = 0.0;
};

std::ostream& operator<<(std::ostream& os, const Sample& s) {
  const auto old = os.precision(17);
  os << "sample " << s.index << ": alpha=" << s.alpha << " vth0=" << s.initial_vth_v
     << " T=" << s.temperature_k << " dvth=" << s.dvth_v << " max_years=" << s.max_years;
  os.precision(old);
  return os;
}

/// Largest |got - want| / bound seen, and the sample that produced it.
struct WorstRatio {
  double ratio = 0.0;
  Sample sample;
  void observe(double got, double want, double bound, const Sample& s) {
    const double r = std::abs(got - want) / bound;
    if (!(r <= ratio)) {  // NaN is always the worst
      ratio = r;
      sample = s;
    }
  }
};

TEST(AgingForecaster, ForecastFields) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const BufferForecast out = f.forecast({0.185, 1.0}, 10.0);
  EXPECT_DOUBLE_EQ(out.initial_vth_v, 0.185);
  EXPECT_GT(out.delta_vth_v, 0.045);  // near the 50mV anchor
  EXPECT_DOUBLE_EQ(out.final_vth_v, out.initial_vth_v + out.delta_vth_v);
  EXPECT_NEAR(out.saving_vs_always_on, 0.0, 1e-9);  // alpha = 1 vs alpha = 1
}

TEST(AgingForecaster, LowDutySavesVth) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const BufferForecast low = f.forecast({0.180, 0.01}, 3.0);
  const BufferForecast high = f.forecast({0.180, 1.0}, 3.0);
  EXPECT_LT(low.delta_vth_v, high.delta_vth_v);
  EXPECT_GT(low.saving_vs_always_on, 0.5);
}

TEST(AgingForecaster, BankForecast) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const auto out = f.forecast_bank({{0.180, 0.1}, {0.185, 0.9}}, 5.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LT(out[0].delta_vth_v, out[1].delta_vth_v);
}

TEST(AgingForecaster, LifetimeBisectionConsistent) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const BufferAgingInput input{0.180, 1.0};
  const double budget = 0.040;
  const double life = f.lifetime_years(input, budget);
  EXPECT_GT(life, 0.0);
  EXPECT_LT(life, 10.0);  // 50mV is reached at 10 years, 40mV earlier
  // The forecast at the lifetime crosses the budget.
  EXPECT_NEAR(f.forecast(input, life).delta_vth_v, budget, 1e-4);
}

TEST(AgingForecaster, LifetimeCappedAtMax) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  // A nearly idle buffer never reaches a 50mV budget within 30 years.
  EXPECT_DOUBLE_EQ(f.lifetime_years({0.180, 0.001}, 0.050, 30.0), 30.0);
}

TEST(AgingForecaster, LowerDutyLivesLonger) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const double life_busy = f.lifetime_years({0.180, 1.0}, 0.045, 100.0);
  const double life_calm = f.lifetime_years({0.180, 0.3}, 0.045, 100.0);
  EXPECT_LT(life_busy, life_calm);
}

TEST(AgingForecaster, EquivalentAgeInvertsTheModel) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const double seconds = AgingForecaster::years_to_seconds(2.0);
  OperatingPoint op;
  op.vth_v = 0.180;
  const double dvth = m.delta_vth(0.6, seconds, op);
  const double t_eq = f.equivalent_age_seconds(dvth, 0.6, 0.180);
  EXPECT_NEAR(t_eq, seconds, seconds * 1e-6);
}

TEST(AgingForecaster, EquivalentAgeEdgeCases) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  EXPECT_DOUBLE_EQ(f.equivalent_age_seconds(0.0, 0.5, 0.180), 0.0);
  EXPECT_DOUBLE_EQ(f.equivalent_age_seconds(0.01, 0.0, 0.180), 0.0);
  // Unreachable shift at tiny alpha saturates at max_seconds.
  EXPECT_DOUBLE_EQ(f.equivalent_age_seconds(1.0, 0.001, 0.180, 1000.0), 1000.0);
}

TEST(AgingForecaster, AdvanceMatchesDirectEvaluationAtConstantAlpha) {
  // Chaining epochs at a constant duty must land on the single-shot value.
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const double epoch = AgingForecaster::years_to_seconds(0.5);
  double dvth = 0.0;
  for (int i = 0; i < 6; ++i) dvth = f.advance_dvth(dvth, 0.4, epoch, 0.180);
  OperatingPoint op;
  op.vth_v = 0.180;
  EXPECT_NEAR(dvth, m.delta_vth(0.4, 6 * epoch, op), 1e-6);
}

TEST(AgingForecaster, AdvanceNeverShrinksAndFreezesAtZeroAlpha) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const double epoch = AgingForecaster::years_to_seconds(0.5);
  const double aged = f.advance_dvth(0.010, 1.0, epoch, 0.180);
  EXPECT_GT(aged, 0.010);
  EXPECT_DOUBLE_EQ(f.advance_dvth(0.010, 0.0, epoch, 0.180), 0.010);
  EXPECT_DOUBLE_EQ(f.advance_dvth(0.010, 0.5, 0.0, 0.180), 0.010);
}

TEST(AgingForecaster, HigherAlphaEpochAgesMore) {
  const NbtiModel m = model();
  AgingForecaster f(m, OperatingPoint{});
  const double epoch = AgingForecaster::years_to_seconds(1.0);
  const double start = 0.005;
  EXPECT_LT(f.advance_dvth(start, 0.1, epoch, 0.180), f.advance_dvth(start, 0.9, epoch, 0.180));
}

// The closed-form inverse against the bisections it replaced, over a
// fixed-seed sweep of duty, silicon, temperature and target shift. Every
// Eq. 1 evaluation carries rounding, so the bisection's answer is itself
// uncertain by about 1e-11 relative, and by its own resolution cap/2^80 in
// absolute terms.
TEST(AgingForecaster, ClosedFormInverseMatchesBisectionOracle) {
  const NbtiModel m = model();
  const double ramp = m.params().short_time_ramp_s;
  const double resolution = std::ldexp(2.0, -80);  // 2 * 2^-80
  const double year_s = AgingForecaster::years_to_seconds(1.0);
  constexpr double kNever = std::numeric_limits<double>::infinity();

  util::Xoshiro256 rng(0x1e1'0a7cULL);
  const auto uniform = [&](double lo, double hi) { return lo + (hi - lo) * rng.next_double(); };
  WorstRatio lifetime, lifetime_inverse, age, age_inverse, round_trip;
  int alpha_zero = 0, ramp_branch = 0, long_term = 0, capped = 0, asymptote = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    double alpha = 0.0;
    switch (i % 8) {
      case 0: alpha = 0.0; break;
      case 1: alpha = 1.0; break;
      case 2: alpha = std::pow(10.0, uniform(-300.0, -9.0)); break;  // alpha -> 0
      case 3: alpha = std::pow(10.0, uniform(-9.0, 0.0)); break;
      default: alpha = uniform(0.0, 1.0); break;
    }
    OperatingPoint op;
    op.vth_v = uniform(0.15, 0.21);
    op.temperature_k = uniform(300.0, 400.0);
    const double max_years = uniform(0.5, 40.0);
    // The shift reached at some time, at the sample's duty (or a random
    // one when alpha = 0, so the shift is positive and never reached).
    const double shaping_alpha = alpha > 0.0 ? alpha : uniform(0.0, 1.0);
    double dvth = 0.0;
    switch ((i / 8) % 4) {
      case 0: dvth = uniform(0.0, 0.08); break;
      case 1: dvth = m.delta_vth(shaping_alpha, std::pow(10.0, uniform(-3.0, 9.6)), op); break;
      case 2:  // the ramp boundary: exactly on it, or within 1% either side
        dvth = m.delta_vth(shaping_alpha, i % 3 == 0 ? ramp : ramp * uniform(0.99, 1.01), op);
        break;
      default: dvth = uniform(0.0, 1e-4); break;  // a few uV, deep in the ramp
    }
    const Sample sample{i, alpha, op.vth_v, op.temperature_k, dvth, max_years};
    const AgingForecaster f(m, op);
    const double t = m.seconds_to_shift(dvth, alpha, op);

    const double want_years = bisect_lifetime_years(m, op, alpha, dvth, max_years);
    const double years_bound = 1e-10 * want_years + resolution * max_years;
    lifetime.observe(f.lifetime_years({op.vth_v, alpha}, dvth, max_years), want_years,
                     years_bound, sample);
    lifetime_inverse.observe(std::min(t / year_s, max_years), want_years, years_bound, sample);

    const double want_age = bisect_equivalent_age_seconds(m, op, dvth, alpha, kFortyYears);
    const double age_bound = 1e-10 * want_age + resolution * kFortyYears;
    age.observe(f.equivalent_age_seconds(dvth, alpha, op.vth_v), want_age, age_bound, sample);
    if (alpha > 0.0) age_inverse.observe(std::min(t, kFortyYears), want_age, age_bound, sample);

    if (alpha <= 0.0) {
      ++alpha_zero;
      EXPECT_EQ(t, dvth > 0.0 ? kNever : 0.0) << sample;
    } else if (t == kNever) {
      ++asymptote;
    } else if (t > max_years * year_s) {
      ++capped;
    } else if (t >= 1e-3) {
      if (t < ramp) ++ramp_branch;
      else ++long_term;
      round_trip.observe(m.delta_vth(alpha, t, op), dvth, 1e-11 * dvth, sample);
    }
  }

  EXPECT_LE(lifetime.ratio, 1.0) << "lifetime_years vs bisection, " << lifetime.sample;
  EXPECT_LE(lifetime_inverse.ratio, 1.0) << "inverse vs lifetime bisection, "
                                         << lifetime_inverse.sample;
  EXPECT_LE(age.ratio, 1.0) << "equivalent_age_seconds vs bisection, " << age.sample;
  EXPECT_LE(age_inverse.ratio, 1.0) << "inverse vs equivalent-age bisection, "
                                    << age_inverse.sample;
  EXPECT_LE(round_trip.ratio, 1.0) << "delta_vth(seconds_to_shift(dV)) vs dV, "
                                   << round_trip.sample;
  // Every regime the sweep is meant to reach is reached.
  EXPECT_GT(alpha_zero, 0);
  EXPECT_GT(ramp_branch, 0);
  EXPECT_GT(long_term, 0);
  EXPECT_GT(capped, 0);
  EXPECT_GT(asymptote, 0);
}

TEST(AgingForecaster, YearsToSeconds) {
  EXPECT_DOUBLE_EQ(AgingForecaster::years_to_seconds(1.0), 365.25 * 24 * 3600);
}

}  // namespace
}  // namespace nbtinoc::nbti
