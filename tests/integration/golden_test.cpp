// Golden regression harness: one fixed scenario per policy, with the
// per-port duty cycles / MD VC / gate-transition counts checked in as a
// golden JSON file. Any refactor that silently changes the reproduction
// fails here with a line-level diff instead of slipping through.
//
// To regenerate after an *intentional* behavior change:
//   NBTINOC_UPDATE_GOLDEN=1 ./build/tests/nbtinoc_tests --gtest_filter='Golden*'
// then review the diff of tests/integration/golden/duty_cycles.json (and
// fault_storm.json, the faulted-run golden, and snapshot_v3.bin, the
// checkpoint bytes).
//
// Only integer counters and duty percentages (exact IEEE ratios of cycle
// counts) go into the JSON goldens — not the PV Vth samples, whose libm
// paths could differ in the last ulp across toolchains. snapshot_v3.bin is
// the exception: raw checkpoint bytes, doubles included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nbtinoc/core/sweep.hpp"

#ifndef NBTINOC_TEST_DATA_DIR
#error "NBTINOC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace nbtinoc::core {
namespace {

const char* kGoldenPath = NBTINOC_TEST_DATA_DIR "/integration/golden/duty_cycles.json";
const char* kFaultGoldenPath = NBTINOC_TEST_DATA_DIR "/integration/golden/fault_storm.json";
const char* kSnapshotGoldenPath = NBTINOC_TEST_DATA_DIR "/integration/golden/snapshot_v3.bin";

sim::Scenario golden_scenario() {
  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.name = "golden-4core-2vc-inj0.10";
  s.warmup_cycles = 2'000;
  s.measure_cycles = 10'000;
  return s;
}

std::string fmt(double v) {
  char buf[64];
  // %.12g: duty cycles are count/window ratios — exact IEEE arithmetic —
  // so 12 significant digits catch any real drift without ulp noise.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// One line per port (most degraded VC, duty, gate transitions), so a drift
/// shows up as a small, readable diff.
void render_ports(std::ostringstream& out, const RunResult& r, const std::string& indent) {
  std::size_t p = 0;
  for (const auto& [key, port] : r.ports) {
    out << indent << "\"r" << key.router << ":" << noc::dir_letter(key.port) << "\": {\"md\": "
        << port.most_degraded << ", \"duty\": [";
    for (std::size_t v = 0; v < port.duty_percent.size(); ++v)
      out << (v ? ", " : "") << fmt(port.duty_percent[v]);
    out << "], \"gate_transitions\": [";
    for (std::size_t v = 0; v < port.gate_transitions.size(); ++v)
      out << (v ? ", " : "") << port.gate_transitions[v];
    out << "]}" << (++p < r.ports.size() ? "," : "") << "\n";
  }
}

/// Renders the runs as a stable, line-oriented JSON document.
std::string render(const std::vector<SweepPointResult>& runs) {
  std::ostringstream out;
  out << "{\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i].result;
    out << "  \"" << to_string(r.policy) << "\": {\n";
    render_ports(out, r, "    ");
    out << "  }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Compares `actual` with the golden file at `path` line by line, or
/// rewrites the file (and skips) under NBTINOC_UPDATE_GOLDEN.
void expect_matches_golden(const char* path, const std::string& actual) {
  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << path << " — review and commit it";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path << " — regenerate with NBTINOC_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  if (actual == expected) return;

  // Readable diff: report every drifted line with both values.
  const std::vector<std::string> want = lines_of(expected);
  const std::vector<std::string> got = lines_of(actual);
  std::ostringstream diff;
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& w = i < want.size() ? want[i] : "<missing>";
    const std::string& g = i < got.size() ? got[i] : "<missing>";
    if (w != g) diff << "  line " << (i + 1) << ":\n    golden: " << w << "\n    actual: " << g << "\n";
  }
  FAIL() << "output drifted from " << path << "\n"
         << diff.str()
         << "If this change is intentional, regenerate with NBTINOC_UPDATE_GOLDEN=1 and commit.";
}

TEST(Golden, DutyCyclesMatchCheckedInGolden) {
  const std::vector<PolicyKind> policies = {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                                            PolicyKind::kSensorWiseNoTraffic,
                                            PolicyKind::kSensorWise};
  SweepRunner sweep{SweepOptions{}};
  sweep.add_grid({golden_scenario()}, policies);
  const SweepResult results = sweep.run();
  expect_matches_golden(kGoldenPath, render({results.begin(), results.end()}));
}

TEST(Golden, SteppedMatchesGolden) {
  // The active-set scheduler's hard guarantee, pinned from the other side:
  // DutyCyclesMatchCheckedInGolden runs under the active set (the
  // RunnerOptions default), so re-running the same grid with the literal
  // per-cycle loop must reproduce the same golden bytes.
  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "golden file being regenerated by DutyCyclesMatchCheckedInGolden";
  SweepOptions options;
  options.runner.scheduler = noc::SchedulerMode::kStepped;
  SweepRunner sweep{options};
  sweep.add_grid({golden_scenario()},
                 {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                  PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise});
  const SweepResult results = sweep.run();
  const std::string actual = render({results.begin(), results.end()});

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str())
      << "the stepped scheduler must be bit-identical to the active-set golden run";
}

TEST(Golden, ZeroRateFaultPlanMatchesGolden) {
  // The fault subsystem's no-op guarantee, pinned to the golden file: a
  // plan whose rates are all zero constructs no injector, so the run is
  // byte-identical to one from a build without the subsystem.
  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "golden file being regenerated by DutyCyclesMatchCheckedInGolden";
  SweepOptions options;
  options.runner.faults = sim::FaultPlan::uniform(0.0);
  ASSERT_FALSE(options.runner.faults.enabled());
  SweepRunner sweep{options};
  sweep.add_grid({golden_scenario()},
                 {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                  PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise});
  const SweepResult results = sweep.run();
  for (const auto& point : results) {
    EXPECT_TRUE(point.result.fault_counters.empty());
    EXPECT_EQ(to_json(point.result).find("fault_counters"), std::string::npos);
  }
  const std::string actual = render({results.begin(), results.end()});

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str())
      << "a zero-rate FaultPlan must be a provable no-op against the golden run";
}

TEST(Golden, FaultStormMatchesCheckedInGolden) {
  // The faulted counterpart of the duty golden: every fault process (gate
  // command drops and flips, wake failures, Down_Up drops, sensor faults,
  // quarantine) draws from one RNG stream at fixed schedule points, so any
  // change in where or in which order the network and the controller draw
  // shows up here. Each policy runs on the buffer organization it drives,
  // under a fabric-wide storm and, once per organization, a targeted one.
  struct Case {
    const char* org;
    PolicyKind policy;
    bool targeted;
  };
  const std::vector<Case> cases = {
      {"partitioned", PolicyKind::kRrNoSensor, false},
      {"partitioned", PolicyKind::kSensorWise, false},
      {"partitioned", PolicyKind::kSensorRank, false},
      {"partitioned", PolicyKind::kSensorWise, true},
      {"shared", PolicyKind::kSensorWiseSlotMd, false},
      {"shared", PolicyKind::kRrSlot, false},
      {"shared", PolicyKind::kSensorWiseSlotMd, true},
  };
  std::ostringstream out;
  out << "{\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    sim::Scenario s = sim::Scenario::synthetic(3, 4, 0.1);
    s.buffer_org = c.org;
    s.name = std::string("fault-golden-9core-4vc-") + c.org;
    s.warmup_cycles = 1'000;
    s.measure_cycles = 6'000;
    RunnerOptions opt;
    opt.faults = sim::FaultPlan::uniform(0.05);
    if (c.targeted)
      opt.faults.targets = {{4, static_cast<int>(noc::Dir::East)},
                            {0, static_cast<int>(noc::Dir::Local)}};
    const RunResult r = run_experiment(s, c.policy, Workload::synthetic(), opt);

    out << "  \"" << c.org << "/" << to_string(c.policy) << (c.targeted ? "/targeted" : "")
        << "\": {\n";
    out << "    \"total_gate_transitions\": " << r.total_gate_transitions << ",\n";
    out << "    \"fault_counters\": {";
    std::size_t k = 0;
    for (const auto& [key, count] : r.fault_counters)
      out << (k++ ? ", " : "") << "\"" << key << "\": " << count;
    out << "},\n";
    out << "    \"ports\": {\n";
    render_ports(out, r, "      ");
    out << "    }\n";
    out << "  }" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "}\n";
  expect_matches_golden(kFaultGoldenPath, out.str());
}

TEST(Golden, SnapshotV3MatchesCheckedInGolden) {
  // The checkpoint format, pinned byte for byte across builds. The resume
  // tests save and load within one build, so a reordering of a serialized
  // table (the controller's per-port contexts or its hysteresis cache)
  // would pass them; it fails here. Two vnets and decision_period 7 put
  // several held decisions per port into the snapshot. The bytes include
  // doubles computed through libm (PV samples, sensor readings), so a
  // toolchain whose libm rounds differently must regenerate the file.
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.05);
  s.num_vnets = 2;
  s.warmup_cycles = 500;
  s.measure_cycles = 4'000;
  RunnerOptions options;
  options.policy.decision_period = 7;
  const RunResult plain =
      run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options);

  std::string bytes;
  RunnerOptions pausing = options;
  pausing.snapshot_at = 1'733;
  pausing.snapshot_out = &bytes;
  run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), pausing);
  ASSERT_FALSE(bytes.empty());

  if (std::getenv("NBTINOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kSnapshotGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kSnapshotGoldenPath;
    out << bytes;
    GTEST_SKIP() << "golden file regenerated at " << kSnapshotGoldenPath
                 << " — review and commit it";
  }
  std::ifstream in(kSnapshotGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kSnapshotGoldenPath
                  << " — regenerate with NBTINOC_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  const auto diverge =
      std::mismatch(bytes.begin(), bytes.end(), golden.begin(), golden.end()).first;
  EXPECT_EQ(bytes.size(), golden.size()) << "snapshot size drifted from " << kSnapshotGoldenPath;
  EXPECT_TRUE(bytes == golden) << "snapshot bytes drift from " << kSnapshotGoldenPath
                               << " at offset " << (diverge - bytes.begin());

  RunnerOptions resuming = options;
  resuming.resume_from = golden;
  const RunResult resumed =
      run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), resuming);
  EXPECT_EQ(to_json(plain), to_json(resumed))
      << "resuming from the golden snapshot must reproduce the uninterrupted run";
}

}  // namespace
}  // namespace nbtinoc::core
