#include "nbtinoc/nbti/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nbtinoc::nbti {
namespace {

constexpr double kTenYears = 10.0 * 365.25 * 24 * 3600;
constexpr double kThreeYears = 3.0 * 365.25 * 24 * 3600;

OperatingPoint op45() { return OperatingPoint{}; }

NbtiModel calibrated() { return NbtiModel::calibrated(NbtiParams{}, op45()); }

TEST(NbtiModel, RejectsBadParams) {
  NbtiParams p;
  p.n = 0.0;
  EXPECT_THROW(NbtiModel{p}, std::invalid_argument);
  p = NbtiParams{};
  p.n = 0.6;
  EXPECT_THROW(NbtiModel{p}, std::invalid_argument);
  p = NbtiParams{};
  p.tox_nm = -1.0;
  EXPECT_THROW(NbtiModel{p}, std::invalid_argument);
  p = NbtiParams{};
  p.xi1 = 2.0;  // xi1*te > tox would allow beta_t < 0
  EXPECT_THROW(NbtiModel{p}, std::invalid_argument);
}

TEST(NbtiModel, CalibrationHitsAnchorExactly) {
  const NbtiModel m = calibrated();
  EXPECT_NEAR(m.delta_vth(1.0, kTenYears, op45()), 0.050, 1e-9);
}

TEST(NbtiModel, CalibrationWithCustomAnchor) {
  NbtiParams p;
  p.anchor_dvth_v = 0.030;
  p.anchor_years = 3.0;
  const NbtiModel m = NbtiModel::calibrated(p, op45());
  EXPECT_NEAR(m.delta_vth(1.0, kThreeYears, op45()), 0.030, 1e-9);
}

TEST(NbtiModel, ZeroAlphaOrTimeGivesZeroShift) {
  const NbtiModel m = calibrated();
  EXPECT_DOUBLE_EQ(m.delta_vth(0.0, kTenYears, op45()), 0.0);
  EXPECT_DOUBLE_EQ(m.delta_vth(0.5, 0.0, op45()), 0.0);
  EXPECT_DOUBLE_EQ(m.delta_vth(-0.3, kTenYears, op45()), 0.0);
}

TEST(NbtiModel, MonotoneIncreasingInAlpha) {
  const NbtiModel m = calibrated();
  double prev = 0.0;
  for (double alpha : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const double d = m.delta_vth(alpha, kThreeYears, op45());
    EXPECT_GT(d, prev) << "alpha=" << alpha;
    prev = d;
  }
}

TEST(NbtiModel, MonotoneIncreasingInTime) {
  const NbtiModel m = calibrated();
  double prev = 0.0;
  for (double years : {0.1, 0.5, 1.0, 3.0, 10.0, 30.0}) {
    const double d = m.delta_vth(1.0, years * 365.25 * 24 * 3600, op45());
    EXPECT_GT(d, prev) << "years=" << years;
    prev = d;
  }
}

TEST(NbtiModel, LongTermFollowsSixthRootOfTime) {
  // The long-term closed form asymptotically behaves as t^n with n = 1/6.
  const NbtiModel m = calibrated();
  const double d1 = m.delta_vth(1.0, kTenYears, op45());
  const double d2 = m.delta_vth(1.0, kTenYears * 64.0, op45());
  const double exponent = std::log(d2 / d1) / std::log(64.0);
  EXPECT_NEAR(exponent, 1.0 / 6.0, 0.02);
}

TEST(NbtiModel, HigherTemperatureDegradesMore) {
  const NbtiModel m = calibrated();
  OperatingPoint cold = op45();
  cold.temperature_k = 320.0;
  OperatingPoint hot = op45();
  hot.temperature_k = 380.0;
  EXPECT_LT(m.delta_vth(0.5, kThreeYears, cold), m.delta_vth(0.5, kThreeYears, hot));
}

TEST(NbtiModel, HigherVddDegradesMore) {
  const NbtiModel m = calibrated();
  OperatingPoint low = op45();
  low.vdd_v = 1.0;
  OperatingPoint high = op45();
  high.vdd_v = 1.3;
  EXPECT_LT(m.delta_vth(0.5, kThreeYears, low), m.delta_vth(0.5, kThreeYears, high));
}

TEST(NbtiModel, BetaTWithinBounds) {
  const NbtiModel m = calibrated();
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (double seconds : {1e-9, 1e-3, 1.0, 1e6, 3e8}) {
      const double beta = m.beta_t(alpha, seconds, op45());
      EXPECT_GE(beta, 0.0);
      EXPECT_LT(beta, 1.0);
    }
  }
}

TEST(NbtiModel, AlphaPowerLawApproximation) {
  // At GHz clock periods the recovery-within-cycle term in beta_t is
  // negligible, so dVth(alpha)/dVth(1) ~ alpha^n.
  const NbtiModel m = calibrated();
  const double ratio = m.delta_vth(0.01, kThreeYears, op45()) / m.delta_vth(1.0, kThreeYears, op45());
  EXPECT_NEAR(ratio, std::pow(0.01, 1.0 / 6.0), 0.01);
}

TEST(NbtiModel, PaperHeadlineSavingAtOnePercentDuty) {
  // Paper: "net NBTI Vth saving up to 54.2%" vs the always-stressed
  // baseline; an MD VC held near ~0.9% duty gives exactly that regime.
  const NbtiModel m = calibrated();
  const double saving = m.vth_saving(0.009, 1.0, kThreeYears, op45());
  EXPECT_NEAR(saving, 0.542, 0.02);
}

TEST(NbtiModel, SavingIsZeroAgainstSelf) {
  const NbtiModel m = calibrated();
  EXPECT_NEAR(m.vth_saving(0.4, 0.4, kThreeYears, op45()), 0.0, 1e-12);
}

TEST(NbtiModel, SavingAgainstZeroReferenceIsZero) {
  const NbtiModel m = calibrated();
  EXPECT_DOUBLE_EQ(m.vth_saving(0.5, 0.0, kThreeYears, op45()), 0.0);
}

TEST(NbtiModel, ShortTimeRampVanishesAtZero) {
  // Below the ramp boundary the model follows t^n down to zero, removing
  // the long-term form's spurious floor: a 30 ms simulation must report a
  // shift far below the 5 mV process-variation spread.
  const NbtiModel m = calibrated();
  const double at_30ms = m.delta_vth(1.0, 0.030, op45());
  EXPECT_GT(at_30ms, 0.0);
  EXPECT_LT(at_30ms, 0.002);
  EXPECT_LT(m.delta_vth(1.0, 1e-6, op45()), 1e-3);
}

TEST(NbtiModel, ShortTimeRampIsContinuousAtBoundary) {
  const NbtiModel m = calibrated();
  const double boundary = m.params().short_time_ramp_s;
  const double below = m.delta_vth(1.0, boundary * (1 - 1e-9), op45());
  const double above = m.delta_vth(1.0, boundary * (1 + 1e-9), op45());
  EXPECT_NEAR(below, above, above * 1e-6);
}

TEST(NbtiModel, SecondsToShiftEdgeCases) {
  const NbtiModel m = calibrated();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(m.seconds_to_shift(0.0, 0.5, op45()), 0.0);
  EXPECT_EQ(m.seconds_to_shift(-0.01, 0.5, op45()), 0.0);
  // A positive shift is never reached without stress.
  EXPECT_EQ(m.seconds_to_shift(0.01, 0.0, op45()), inf);
  EXPECT_EQ(m.seconds_to_shift(0.01, -0.3, op45()), inf);
  // The calibration anchor reads back, and alpha > 1 clamps to 1.
  EXPECT_NEAR(m.seconds_to_shift(0.050, 1.0, op45()), kTenYears, kTenYears * 1e-10);
  EXPECT_EQ(m.seconds_to_shift(0.050, 1.5, op45()), m.seconds_to_shift(0.050, 1.0, op45()));
  // The ramp boundary reads back from the long-term branch, and a shift just
  // under it from the power-law ramp.
  const double ramp = m.params().short_time_ramp_s;
  const double at_ramp = m.delta_vth(0.4, ramp, op45());
  EXPECT_NEAR(m.seconds_to_shift(at_ramp, 0.4, op45()), ramp, ramp * 1e-12);
  EXPECT_NEAR(m.seconds_to_shift(at_ramp * 0.5, 0.4, op45()), ramp * std::pow(0.5, 6.0),
              ramp * 1e-12);
  // beta_t's clamp levels Eq. 1 off as t -> infinity; past that level the
  // shift is never reached.
  const double asymptote = m.delta_vth(0.4, 1e40, op45());
  EXPECT_EQ(m.beta_t(0.4, 1e40, op45()), 1.0 - 1e-12);
  EXPECT_EQ(m.seconds_to_shift(asymptote * 1.001, 0.4, op45()), inf);
  EXPECT_LT(m.seconds_to_shift(asymptote * 0.999, 0.4, op45()), inf);
}

TEST(NbtiModel, SecondsToShiftWithoutTheRamp) {
  // Without the ramp, Eq. 1 holds from t = 0+ and starts at its spurious
  // floor (beta_t(0+) = 0.1 here): every shift up to it is reached at once.
  NbtiParams p;
  p.short_time_ramp_s = 0.0;
  const NbtiModel m = NbtiModel::calibrated(p, op45());
  const double at_start = m.delta_vth(0.5, 1e-30, op45());
  EXPECT_GT(at_start, 0.002);
  EXPECT_EQ(m.seconds_to_shift(at_start * 0.9999, 0.5, op45()), 0.0);  // beta_t in (0, 0.1)
  EXPECT_EQ(m.seconds_to_shift(at_start * 0.5, 0.5, op45()), 0.0);     // below beta_t = 0
  for (const double seconds : {1.0, 3600.0, kTenYears}) {
    const double dvth = m.delta_vth(0.5, seconds, op45());
    EXPECT_NEAR(m.seconds_to_shift(dvth, 0.5, op45()), seconds, seconds * 1e-9);
  }
}

TEST(NbtiModel, DiffusivityArrhenius) {
  const NbtiModel m{NbtiParams{}};
  EXPECT_LT(m.diffusivity(300.0), m.diffusivity(400.0));
  EXPECT_GT(m.diffusivity(300.0), 0.0);
}

TEST(NbtiModel, DescribeMentionsCalibration) {
  const NbtiModel m = calibrated();
  EXPECT_NE(m.describe().find("Eq.1"), std::string::npos);
  EXPECT_NE(m.describe().find("50"), std::string::npos);
}

// Property sweep: saving fraction is monotone decreasing in alpha for any
// operating point in a realistic envelope.
class SavingMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(SavingMonotoneTest, SavingDecreasesWithAlpha) {
  const NbtiModel m = calibrated();
  OperatingPoint op = op45();
  op.temperature_k = GetParam();
  double prev_saving = 1.1;
  for (double alpha : {0.001, 0.01, 0.1, 0.5, 1.0}) {
    const double s = m.vth_saving(alpha, 1.0, kThreeYears, op);
    EXPECT_LT(s, prev_saving);
    EXPECT_GE(s, 0.0);
    prev_saving = s;
  }
}

INSTANTIATE_TEST_SUITE_P(TemperatureEnvelope, SavingMonotoneTest,
                         ::testing::Values(320.0, 350.0, 380.0, 400.0));

}  // namespace
}  // namespace nbtinoc::nbti
