#include "nbtinoc/core/lifetime_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nbtinoc::core {
namespace {

const noc::PortKey kSampled{0, noc::Dir::East};

sim::Scenario scenario() {
  return sim::Scenario::synthetic(2, 2, 0.2);
}

LifetimeEngineOptions quick_options(int epochs = 4) {
  LifetimeEngineOptions opt;
  opt.epochs = epochs;
  opt.years_per_epoch = 0.5;
  opt.measure_cycles_per_epoch = 15'000;
  return opt;
}

/// The exact study: a measurement window every epoch.
LifetimeEngineOptions exact_options(int epochs = 4) {
  LifetimeEngineOptions opt = quick_options(epochs);
  opt.remeasure_tolerance_v = 0.0;
  return opt;
}

LifetimeEngineResult run_engine(PolicyKind policy, const LifetimeEngineOptions& opt,
                                const sim::Scenario& s = scenario(),
                                noc::PortKey sampled = kSampled) {
  return LifetimeEngine(s, policy, Workload::synthetic(), sampled, opt).run();
}

LifetimeResult study(PolicyKind policy, int epochs) {
  return run_engine(policy, exact_options(epochs)).study;
}

TEST(LifetimeEngine, RejectsBadOptions) {
  LifetimeEngineOptions bad = quick_options();
  bad.remeasure_tolerance_v = -1.0;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  bad = quick_options();
  bad.max_extrapolated_epochs = 0;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  // Non-finite settings (reachable from bench_lifetime flags).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double years : {nan, std::numeric_limits<double>::infinity()}) {
    bad = quick_options();
    bad.years_per_epoch = years;
    EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  }
  bad = quick_options();
  bad.remeasure_tolerance_v = nan;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
}

// The exact study is defined by composition: measured epoch k is one
// run_experiment call (warmup m/5, measure m, epoch-salted traffic) on the
// silicon a k-epoch study leaves behind, and the (k+1)-epoch study's silicon
// is that silicon aged one epoch at the duty the call measured.
TEST(LifetimeEngine, ToleranceZeroMatchesSteppedStudyExactly) {
  const sim::Scenario s = scenario();
  const LifetimeEngineOptions opt = exact_options(4);
  const nbti::NbtiModel model = calibrated_model_of(s);
  const nbti::AgingForecaster forecaster(model, operating_point_of(s));
  const double epoch_seconds = nbti::AgingForecaster::years_to_seconds(opt.years_per_epoch);
  const auto fresh = sample_network_vths(noc_config_of(s), pv_config_of(s), s.pv_seed());
  sim::Scenario window = s;
  window.warmup_cycles = opt.measure_cycles_per_epoch / 5;
  window.measure_cycles = opt.measure_cycles_per_epoch;

  for (PolicyKind policy : {PolicyKind::kBaseline, PolicyKind::kSensorWise}) {
    const auto full = run_engine(policy, opt);
    EXPECT_EQ(full.measured_epochs, opt.epochs);
    EXPECT_EQ(full.extrapolated_epochs, 0);
    auto silicon = fresh;
    for (int k = 0; k < opt.epochs; ++k) {
      Workload workload = Workload::synthetic();
      workload.seed_salt ^= 0x11d0ULL * static_cast<std::uint64_t>(k + 1);
      RunnerOptions ropt;
      ropt.initial_vths = silicon;
      const RunResult direct = run_experiment(window, policy, workload, ropt);
      EXPECT_EQ(full.study.epochs[static_cast<std::size_t>(k)].duty_percent,
                direct.ports.at(kSampled).duty_percent)
          << to_string(policy) << " epoch " << k;

      LifetimeEngineOptions prefix = opt;
      prefix.epochs = k + 1;
      const auto aged = run_engine(policy, prefix).study.final_vths;
      ASSERT_EQ(aged.size(), direct.ports.size());
      for (const auto& [key, bank] : aged) {
        const auto& duty = direct.ports.at(key).duty_percent;
        for (std::size_t i = 0; i < bank.size(); ++i) {
          const double base = fresh.at(key)[i];
          const double expected = forecaster.advance_dvth(silicon.at(key)[i] - base,
                                                          duty[i] / 100.0, epoch_seconds, base);
          EXPECT_NEAR(bank[i] - base, expected, 1e-12) << to_string(policy) << " epoch " << k;
        }
      }
      silicon = aged;
    }
  }
}

// An epoch's outcome depends only on the epochs before it: a longer exact
// study starts with the shorter one, record for record.
TEST(LifetimeEngine, ExactStudyExtendsItsPrefix) {
  const auto four = study(PolicyKind::kSensorWise, 4);
  const auto eight = study(PolicyKind::kSensorWise, 8);
  ASSERT_EQ(eight.epochs.size(), 8u);
  for (std::size_t e = 0; e < four.epochs.size(); ++e) {
    EXPECT_EQ(eight.epochs[e].years_elapsed, four.epochs[e].years_elapsed);
    EXPECT_EQ(eight.epochs[e].most_degraded, four.epochs[e].most_degraded);
    EXPECT_EQ(eight.epochs[e].vth_v, four.epochs[e].vth_v);
    EXPECT_EQ(eight.epochs[e].duty_percent, four.epochs[e].duty_percent);
  }
}

// With a nonzero tolerance the engine must actually skip measurement
// windows AND stay within a trajectory error commensurate with the
// tolerance it was given.
TEST(LifetimeEngine, ToleranceSkipsWindowsAndTracksReference) {
  const auto reference = study(PolicyKind::kSensorWise, 8);
  LifetimeEngineOptions approx = quick_options(8);
  approx.remeasure_tolerance_v = 0.002;
  const auto hier = run_engine(PolicyKind::kSensorWise, approx);
  EXPECT_LT(hier.measured_epochs, approx.epochs);  // this is where the speedup comes from
  EXPECT_EQ(hier.measured_epochs + hier.extrapolated_epochs, approx.epochs);
  EXPECT_GE(hier.measured_epochs, 1);

  // Convergence: every buffer of the full final silicon within a small
  // multiple of the tolerance (duty drifts slowly; errors accumulate
  // sublinearly because re-measurement resets them).
  ASSERT_EQ(hier.study.final_vths.size(), reference.final_vths.size());
  double worst_error = 0.0;
  for (const auto& [key, bank] : reference.final_vths) {
    const auto& hier_bank = hier.study.final_vths.at(key);
    ASSERT_EQ(hier_bank.size(), bank.size());
    for (std::size_t v = 0; v < bank.size(); ++v)
      worst_error = std::max(worst_error, std::fabs(hier_bank[v] - bank[v]));
  }
  EXPECT_LT(worst_error, 4 * approx.remeasure_tolerance_v);
}

TEST(LifetimeEngine, MaxExtrapolatedEpochsForcesRemeasure) {
  LifetimeEngineOptions opt = quick_options(6);
  opt.remeasure_tolerance_v = 1.0;  // absurdly loose: would never re-measure on drift
  opt.max_extrapolated_epochs = 2;
  const auto hier = run_engine(PolicyKind::kSensorWise, opt);
  // Epochs: measure, extrap, extrap, measure (cap), extrap, extrap.
  EXPECT_EQ(hier.measured_epochs, 2);
  EXPECT_EQ(hier.extrapolated_epochs, 4);
}

TEST(LifetimeEngine, DeterministicAcrossRuns) {
  LifetimeEngineOptions opt = quick_options(5);
  opt.remeasure_tolerance_v = 0.002;
  const auto a = run_engine(PolicyKind::kSensorWise, opt);
  const auto b = run_engine(PolicyKind::kSensorWise, opt);
  EXPECT_EQ(a.measured_epochs, b.measured_epochs);
  ASSERT_EQ(a.study.epochs.size(), b.study.epochs.size());
  for (std::size_t e = 0; e < a.study.epochs.size(); ++e)
    EXPECT_EQ(a.study.epochs[e].vth_v, b.study.epochs[e].vth_v);
}

// Silicon comes from noc_config_of, so every fabric run_experiment accepts
// ages: wrap-link and concentrated topologies, and the shared (DAMQ)
// organization with one Vth per pool slot.
TEST(LifetimeEngine, AgesEveryTopologyAndBufferOrg) {
  struct Fabric {
    const char* topology;
    const char* buffer_org;
    PolicyKind policy;
  };
  for (const Fabric& f : {Fabric{"torus", "partitioned", PolicyKind::kSensorWise},
                          Fabric{"cmesh", "partitioned", PolicyKind::kSensorWise},
                          Fabric{"mesh", "shared", PolicyKind::kSensorWiseSlotMd}}) {
    sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.1);
    s.topology = f.topology;
    s.concentration = s.topology == "cmesh" ? 2 : 1;
    s.buffer_org = f.buffer_org;
    LifetimeEngineOptions opt = exact_options(2);
    opt.measure_cycles_per_epoch = 2'000;
    const auto r = run_engine(f.policy, opt, s);
    const auto buffers = static_cast<std::size_t>(noc_config_of(s).buffers_per_port());
    ASSERT_EQ(r.study.epochs.size(), 2u) << f.topology << "/" << f.buffer_org;
    EXPECT_EQ(r.study.epochs.back().duty_percent.size(), buffers);

    s.warmup_cycles = 100;
    s.measure_cycles = 500;
    const RunResult run = run_experiment(s, f.policy, Workload::synthetic());
    ASSERT_EQ(r.study.final_vths.size(), run.ports.size()) << f.topology << "/" << f.buffer_org;
    for (const auto& [key, port] : run.ports) {
      ASSERT_TRUE(r.study.final_vths.count(key)) << f.topology << "/" << f.buffer_org;
      EXPECT_EQ(r.study.final_vths.at(key).size(), buffers);
    }
  }
}

// --- the exact study's behaviour over the years -----------------------------

TEST(LifetimeStudy, RejectsBadOptions) {
  LifetimeEngineOptions bad = exact_options();
  bad.epochs = 0;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  bad = exact_options();
  bad.years_per_epoch = 0.0;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  bad = exact_options();
  bad.measure_cycles_per_epoch = 0;
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, bad), std::invalid_argument);
  // Nonexistent port on a 2x2 mesh corner.
  EXPECT_THROW(run_engine(PolicyKind::kSensorWise, exact_options(), scenario(),
                          {0, noc::Dir::West}),
               std::invalid_argument);
}

TEST(LifetimeStudy, RecordsEveryEpochWithMonotoneTime) {
  const auto r = study(PolicyKind::kSensorWise, 4);
  ASSERT_EQ(r.epochs.size(), 4u);
  double prev_years = 0.0;
  for (const auto& e : r.epochs) {
    EXPECT_GT(e.years_elapsed, prev_years);
    prev_years = e.years_elapsed;
    EXPECT_EQ(e.vth_v.size(), 2u);
    EXPECT_EQ(e.duty_percent.size(), 2u);
  }
  EXPECT_DOUBLE_EQ(r.epochs.back().years_elapsed, 2.0);
}

TEST(LifetimeStudy, VthNeverDecreases) {
  const auto r = study(PolicyKind::kRrNoSensor, 4);
  for (std::size_t e = 1; e < r.epochs.size(); ++e) {
    for (std::size_t v = 0; v < r.epochs[e].vth_v.size(); ++v)
      EXPECT_GE(r.epochs[e].vth_v[v], r.epochs[e - 1].vth_v[v] - 1e-12);
  }
}

TEST(LifetimeStudy, BaselineAgesFastest) {
  EXPECT_GT(study(PolicyKind::kBaseline, 3).final_worst_vth_v,
            study(PolicyKind::kSensorWise, 3).final_worst_vth_v);
}

TEST(LifetimeStudy, BaselineDutyStaysHundred) {
  for (const auto& e : study(PolicyKind::kBaseline, 2).epochs)
    for (double d : e.duty_percent) EXPECT_DOUBLE_EQ(d, 100.0);
}

TEST(LifetimeStudy, FinalVthsCoverEveryPort) {
  const auto r = study(PolicyKind::kSensorWise, 2);
  EXPECT_EQ(r.final_vths.size(), 12u);  // 2x2 mesh: 3 ports x 4 routers
  for (const auto& [key, bank] : r.final_vths) EXPECT_EQ(bank.size(), 2u);
}

TEST(LifetimeStudy, SensorWiseEquizalizesWearOverTime) {
  // Under sensor-wise the accumulated shift concentrates away from the
  // initially-worst VC; the spread of *final* Vth should not exceed the
  // baseline's spread by much (baseline ages uniformly: spread = initial
  // PV spread exactly).
  const auto base = study(PolicyKind::kBaseline, 4);
  const auto sw = study(PolicyKind::kSensorWise, 4);
  // Baseline: every VC at alpha=1 -> near-equal shift (the Eox term makes a
  // higher-Vth device age marginally slower) -> spread ~ PV spread.
  const auto& first = base.epochs.front().vth_v;
  const auto& last = base.epochs.back().vth_v;
  EXPECT_NEAR(last[0] - last[1], first[0] - first[1], 1e-4);
  // The policy's wear-aware allocation keeps the final spread bounded.
  EXPECT_LT(sw.final_spread_v, 0.030);
}

}  // namespace
}  // namespace nbtinoc::core
