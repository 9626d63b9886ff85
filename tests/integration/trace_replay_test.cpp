// Trace capture/replay end to end: RunnerOptions::capture_trace observes a
// live run without perturbing it, and replaying the capture through
// Workload::trace_replay reproduces the full result JSON bit for bit — under
// every scheduler mode, through fault storms, across snapshot/resume, and
// for the datacenter aggregate workload. A checked-in golden .nbtitrace
// fixture additionally pins the binary format bytes themselves.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/traffic/trace.hpp"
#include "nbtinoc/traffic/trace_file.hpp"

#ifndef NBTINOC_TEST_DATA_DIR
#error "NBTINOC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace nbtinoc::core {
namespace {

void expect_run_equal(const RunResult& a, const RunResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(to_json(a), to_json(b));
  ASSERT_EQ(a.ports.size(), b.ports.size());
  for (const auto& [key, port] : a.ports) {
    const PortResult& other = b.ports.at(key);
    EXPECT_EQ(port.gate_transitions, other.gate_transitions);
    EXPECT_EQ(port.most_degraded, other.most_degraded);
    EXPECT_EQ(port.duty_percent, other.duty_percent);
  }
  EXPECT_EQ(a.total_gate_transitions, b.total_gate_transitions);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

/// Runs the workload under both scheduler modes and asserts the results are
/// bit-identical; returns the stepped result.
RunResult run_both_schedulers(const sim::Scenario& s, PolicyKind policy,
                              const Workload& workload, RunnerOptions options) {
  options.scheduler = noc::SchedulerMode::kStepped;
  const RunResult stepped = run_experiment(s, policy, workload, options);
  options.scheduler = noc::SchedulerMode::kActiveSet;
  const RunResult active = run_experiment(s, policy, workload, options);
  expect_run_equal(stepped, active, "stepped vs active-set");
  return stepped;
}

sim::Scenario small_scenario() {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.08);
  s.warmup_cycles = 500;
  s.measure_cycles = 4'000;
  return s;
}

/// Captures `workload` under `options` and returns (live result, trace file).
std::pair<RunResult, std::shared_ptr<const traffic::TraceFile>> capture(
    const sim::Scenario& s, PolicyKind policy, const Workload& workload, RunnerOptions options) {
  traffic::Trace trace;
  options.capture_trace = &trace;
  RunResult live = run_experiment(s, policy, workload, options);
  return {std::move(live), traffic::TraceFile::from_trace(trace, s.cores(), "test capture")};
}

TEST(TraceReplayRun, CaptureIsObservationOnlyAndReplaysBitIdentically) {
  const sim::Scenario s = small_scenario();
  const Workload live_workload = Workload::synthetic();

  // Capturing must not perturb the run...
  const RunResult plain = run_experiment(s, PolicyKind::kSensorWise, live_workload);
  const auto [live, file] = capture(s, PolicyKind::kSensorWise, live_workload, RunnerOptions{});
  expect_run_equal(plain, live, "uncaptured vs captured run");
  ASSERT_GT(file->record_count(), 100u);

  // ...and replaying the capture reproduces the run bit for bit, in every
  // scheduler mode.
  const RunResult replayed =
      run_both_schedulers(s, PolicyKind::kSensorWise, Workload::trace_replay(file),
                          RunnerOptions{});
  expect_run_equal(live, replayed, "live vs trace replay");
}

TEST(TraceReplayRun, ReplayIsPolicyIndependentOfferedLoad) {
  // One frozen trace drives different policies with the identical offered
  // load — the use case the paper's Table IV comparison depends on.
  const sim::Scenario s = small_scenario();
  const auto [live, file] = capture(s, PolicyKind::kRrNoSensor, Workload::synthetic(),
                                    RunnerOptions{});
  const Workload replay = Workload::trace_replay(file);
  const RunResult rr = run_experiment(s, PolicyKind::kRrNoSensor, replay);
  const RunResult sw = run_experiment(s, PolicyKind::kSensorWise, replay);
  expect_run_equal(live, rr, "live rr vs replayed rr");
  EXPECT_EQ(rr.packets_offered, sw.packets_offered);
}

TEST(TraceReplayRun, MidFaultStormReplayMatchesAcrossSchedulers) {
  // Capture under a fault storm, then replay with the same plan: the storm
  // re-derives from the scenario, so dropped/flipped packets land on the
  // identical cycles and the replay still matches under both schedulers.
  const sim::Scenario s = small_scenario();
  RunnerOptions options;
  options.faults = sim::FaultPlan::uniform(0.02);
  const auto [live, file] = capture(s, PolicyKind::kSensorWise, Workload::synthetic(), options);
  ASSERT_FALSE(live.fault_counters.empty());
  const RunResult replayed =
      run_both_schedulers(s, PolicyKind::kSensorWise, Workload::trace_replay(file), options);
  expect_run_equal(live, replayed, "fault-storm live vs replay");
}

TEST(TraceReplayRun, SnapshotResumeOfTraceRunIsBitIdentical) {
  // The replay cursor is the source's whole dynamic state; pausing a
  // trace-driven run mid-measurement and resuming must reproduce the
  // uninterrupted result exactly (cursor serialization round trip).
  const sim::Scenario s = small_scenario();
  const auto [live, file] = capture(s, PolicyKind::kSensorWise, Workload::synthetic(),
                                    RunnerOptions{});
  const Workload replay = Workload::trace_replay(file);

  RunnerOptions options;
  const RunResult plain = run_experiment(s, PolicyKind::kSensorWise, replay, options);
  expect_run_equal(live, plain, "live vs replay (pre-snapshot sanity)");

  std::string bytes;
  options.snapshot_at = 2'200;
  options.snapshot_out = &bytes;
  const RunResult paused = run_experiment(s, PolicyKind::kSensorWise, replay, options);
  expect_run_equal(plain, paused, "uninterrupted vs paused-and-continued");
  ASSERT_FALSE(bytes.empty());

  options.snapshot_at.reset();
  options.snapshot_out = nullptr;
  options.resume_from = bytes;
  for (const auto mode : {noc::SchedulerMode::kStepped, noc::SchedulerMode::kActiveSet}) {
    options.scheduler = mode;
    const RunResult resumed = run_experiment(s, PolicyKind::kSensorWise, replay, options);
    expect_run_equal(plain, resumed, "uninterrupted vs resumed replay");
  }
}

TEST(TraceReplayRun, DatacenterWorkloadCapturesAndReplays) {
  // The intended datacenter production path: synthesize once, capture, then
  // replay the frozen aggregate across policies and scheduler modes.
  sim::Scenario s = small_scenario();
  traffic::DatacenterProfile profile;
  profile.users_per_node = 64;
  profile.user_rate = 0.05;
  profile.mean_on_cycles = 400;
  profile.mean_off_cycles = 600;
  profile.profile_horizon = 1 << 12;
  const Workload dc = Workload::datacenter_aggregate(profile);

  const RunResult live = run_both_schedulers(s, PolicyKind::kSensorWise, dc, RunnerOptions{});
  const auto [captured, file] = capture(s, PolicyKind::kSensorWise, dc, RunnerOptions{});
  expect_run_equal(live, captured, "datacenter both-scheduler vs captured run");
  ASSERT_GT(file->record_count(), 100u);
  const RunResult replayed =
      run_both_schedulers(s, PolicyKind::kSensorWise, Workload::trace_replay(file),
                          RunnerOptions{});
  expect_run_equal(live, replayed, "datacenter live vs replay");
}

TEST(TraceReplayRun, WorkloadValidationIsActionable) {
  const sim::Scenario s = small_scenario();

  // Null trace caught at Workload construction, not install time.
  try {
    Workload::trace_replay(nullptr);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("null trace (open one with traffic::TraceFile::open)"),
              std::string::npos)
        << e.what();
  }

  // A trace carrying more vnets than the scenario provides is rejected with
  // both counts and the trace digest named.
  traffic::Trace wide;
  wide.add({10, 0, 1, 4, /*vnet=*/1});
  const auto file = traffic::TraceFile::from_trace(wide, s.cores(), "two-vnet capture");
  ASSERT_EQ(file->vnet_count(), 2);
  sim::Scenario narrow = s;
  narrow.num_vnets = 1;
  try {
    run_experiment(narrow, PolicyKind::kSensorWise, Workload::trace_replay(file));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("trace uses 2 vnets but this scenario has 1 (trace digest: "
                        "\"two-vnet capture\")"),
              std::string::npos)
        << e.what();
  }

  // Node-count mismatches surface the digest too (install_trace_replay).
  sim::Scenario bigger = sim::Scenario::synthetic(4, 2, 0.08);
  bigger.num_vnets = 2;  // pass the vnet check so the node check fires
  bigger.warmup_cycles = 100;
  bigger.measure_cycles = 100;
  EXPECT_THROW(
      run_experiment(bigger, PolicyKind::kSensorWise, Workload::trace_replay(file)),
      traffic::TraceError);
}

TEST(TraceReplayRun, CaptureCannotCombineWithResume) {
  const sim::Scenario s = small_scenario();
  RunnerOptions options;
  std::string bytes;
  options.snapshot_at = 1'000;
  options.snapshot_out = &bytes;
  run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options);

  options.snapshot_at.reset();
  options.snapshot_out = nullptr;
  options.resume_from = bytes;
  traffic::Trace trace;
  options.capture_trace = &trace;
  try {
    run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capture_trace cannot combine with resume_from"),
              std::string::npos)
        << e.what();
  }
}

// Golden fixture: the exact NBTITRACE bytes of a fixed capture are checked
// in, pinning the binary format (header layout, record packing, per-node
// grouping and same-cycle ordering) against accidental drift. Regenerate
// after an intentional format/capture change with
//   NBTINOC_UPDATE_GOLDEN=1 ./build/tests/nbtinoc_tests --gtest_filter='TraceGolden*'
TEST(TraceGolden, CapturedTraceBytesMatchCheckedInFixture) {
  const char* kGoldenPath =
      NBTINOC_TEST_DATA_DIR "/integration/golden/trace_capture.nbtitrace";

  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.name = "golden-trace-4core";
  s.warmup_cycles = 500;
  s.measure_cycles = 2'000;
  traffic::Trace trace;
  RunnerOptions options;
  options.capture_trace = &trace;
  run_experiment(s, PolicyKind::kRrNoSensor, Workload::synthetic(), options);
  const std::string actual = traffic::serialize_trace(trace, s.cores(), "golden-trace-4core");
  ASSERT_GT(trace.size(), 50u);

  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden trace regenerated at " << kGoldenPath << " — review and commit it";
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden trace " << kGoldenPath
                  << " — regenerate with NBTINOC_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  EXPECT_EQ(actual.size(), expected.size()) << "trace byte length drifted from " << kGoldenPath;
  if (actual != expected) {
    std::size_t first = 0;
    while (first < std::min(actual.size(), expected.size()) && actual[first] == expected[first])
      ++first;
    FAIL() << "trace bytes drifted from " << kGoldenPath << " (first difference at offset "
           << first << " of " << expected.size() << ").\n"
           << "If this change is intentional, regenerate with NBTINOC_UPDATE_GOLDEN=1 and commit.";
  }

  // The checked-in fixture must itself open cleanly and replay to the same
  // result as a fresh capture's file.
  const auto golden_file = traffic::TraceFile::open(kGoldenPath);
  const RunResult from_golden =
      run_experiment(s, PolicyKind::kRrNoSensor, Workload::trace_replay(golden_file));
  const RunResult from_fresh = run_experiment(
      s, PolicyKind::kRrNoSensor,
      Workload::trace_replay(traffic::TraceFile::from_bytes(actual)));
  expect_run_equal(from_golden, from_fresh, "golden fixture vs fresh capture replay");
}

}  // namespace
}  // namespace nbtinoc::core
