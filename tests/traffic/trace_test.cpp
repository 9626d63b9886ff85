#include <fstream>
#include "nbtinoc/traffic/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::traffic {
namespace {

TEST(Trace, SaveLoadRoundTrip) {
  Trace t;
  t.add({10, 0, 3, 4});
  t.add({11, 1, 2, 9});
  const std::string path = std::filesystem::temp_directory_path() / "nbtinoc_trace.csv";
  t.save(path);
  const Trace loaded = Trace::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0].cycle, 10u);
  EXPECT_EQ(loaded.records()[0].dst, 3);
  EXPECT_EQ(loaded.records()[1].length, 9);
  std::remove(path.c_str());
}

TEST(Trace, CaptureRecordsOfferedLoad) {
  SyntheticSource src(0, 0.4, 4, DestinationPattern(PatternKind::kUniform, 2, 2), 17);
  const Trace t = Trace::capture({&src}, 2000);
  EXPECT_GT(t.size(), 100u);
  for (const auto& rec : t.records()) {
    EXPECT_EQ(rec.src, 0);
    EXPECT_EQ(rec.length, 4);
    EXPECT_LT(rec.cycle, 2000u);
  }
}

TEST(Trace, CaptureSkipsNullSources) {
  SyntheticSource src(1, 0.4, 4, DestinationPattern(PatternKind::kUniform, 2, 2), 19);
  const Trace t = Trace::capture({nullptr, &src}, 500);
  for (const auto& rec : t.records()) EXPECT_EQ(rec.src, 1);
}

TEST(TraceReplay, ReplaysOwnSliceInOrder) {
  Trace t;
  t.add({5, 0, 1, 4});
  t.add({6, 1, 2, 4});  // other node's packet
  t.add({9, 0, 3, 2});
  TraceReplaySource replay(TraceFile::from_trace(t, 4, "replay-slice"), 0);
  EXPECT_FALSE(replay.maybe_generate(4).has_value());
  const auto first = replay.maybe_generate(5);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->dst, 1);
  EXPECT_FALSE(replay.maybe_generate(7).has_value());
  const auto second = replay.maybe_generate(9);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->dst, 3);
  EXPECT_EQ(second->length, 2);
  EXPECT_FALSE(replay.maybe_generate(10).has_value());
}

TEST(TraceReplay, SameCycleRecordsSlipForward) {
  Trace t;
  t.add({5, 0, 1, 4});
  t.add({5, 0, 2, 4});
  TraceReplaySource replay(TraceFile::from_trace(t, 4, "same-cycle"), 0);
  EXPECT_EQ(replay.maybe_generate(5)->dst, 1);
  EXPECT_EQ(replay.maybe_generate(6)->dst, 2);  // deferred one cycle
}

TEST(TraceReplay, CapturedTrafficReplaysIdentically) {
  // Capture a synthetic stream, then replay it through a network: the same
  // offered packets arrive.
  SyntheticSource src(0, 0.2, 4, DestinationPattern(PatternKind::kUniform, 2, 2), 23);
  const Trace trace = Trace::capture({&src, nullptr, nullptr, nullptr}, 3000);

  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  noc::Network net(cfg);
  net.set_traffic_source(
      0, std::make_unique<TraceReplaySource>(TraceFile::from_trace(trace, 4, "captured"), 0));
  net.run(6000);
  EXPECT_EQ(net.stats().counter("noc.packets_offered"), trace.size());
}

TEST(Trace, LoadMalformedThrows) {
  const std::string path = std::filesystem::temp_directory_path() / "nbtinoc_bad_trace.csv";
  {
    std::ofstream out(path);
    out << "1,2,3\n";  // missing the length column
  }
  EXPECT_THROW(Trace::load(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `body` to a temp CSV and expects Trace::load to throw a message
/// containing "<path>:<line>: <needle>" — the line-numbered actionable-error
/// contract. The file is named after the running test, so tests run in
/// parallel never share it.
void expect_load_error(const std::string& body, int line, const std::string& needle,
                       int num_nodes = 0) {
  const std::string path =
      std::filesystem::temp_directory_path() /
      ("nbtinoc_" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       ".csv");
  {
    std::ofstream out(path);
    out << body;
  }
  try {
    Trace::load(path, num_nodes);
    FAIL() << "expected error containing '" << needle << "' for body: " << body;
  } catch (const std::runtime_error& e) {
    const std::string expected =
        "Trace::load: " + path + ":" + std::to_string(line) + ": " + needle;
    EXPECT_EQ(std::string(e.what()), expected) << "for body: " << body;
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadErrorsAreLineNumberedAndActionable) {
  // Header comments and blank lines still advance the reported line number.
  expect_load_error("# header\n\n1,2\n", 3,
                    "expected 4 or 5 columns (cycle,src,dst,length[,vnet]), got 2");
  expect_load_error("1,0,1,4,0,9\n", 1,
                    "expected 4 or 5 columns (cycle,src,dst,length[,vnet]), got 6");
  expect_load_error("1,0,,4\n", 1, "empty dst column");
  expect_load_error("x,0,1,4\n", 1, "cycle is not a non-negative integer: 'x'");
  expect_load_error("1,-2,1,4\n", 1, "src is not a non-negative integer: '-2'");
  expect_load_error("1,0,1,99999999999999999999\n", 1,
                    "length overflows: '99999999999999999999'");
  expect_load_error("1,0,1,0\n", 1, "length must be >= 1, got 0");
  expect_load_error("1,0,1,4,3000000000\n", 1, "vnet overflows: '3000000000'");
}

TEST(Trace, LoadBoundsChecksAgainstNodeCount) {
  // With num_nodes the src/dst columns are range-checked...
  expect_load_error("0,4,1,4\n", 1, "src 4 out of range for a 4-node network", /*num_nodes=*/4);
  expect_load_error("# ok line\n0,1,2,4\n0,3,9,4\n", 3,
                    "dst 9 out of range for a 4-node network", /*num_nodes=*/4);
  // ...and without it they must still fit a node id.
  expect_load_error("0,3000000000,1,4\n", 1, "src 3000000000 does not fit a node id");
}

TEST(Trace, LoadMissingFileNamesPath) {
  try {
    Trace::load("/nonexistent/dir/trace.csv");
    FAIL() << "expected error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Trace::load: cannot open /nonexistent/dir/trace.csv");
  }
}

TEST(Trace, CaptureConsumesSourceRng) {
  // Pins the Trace::capture contract: capture *consumes* the sources' RNG
  // streams, so a captured source must be discarded, not reused. A fresh
  // source with the same seed reproduces the capture exactly; the consumed
  // source continues the advanced stream and diverges.
  const auto make = [] {
    return std::make_unique<SyntheticSource>(0, 0.4, 4,
                                             DestinationPattern(PatternKind::kUniform, 2, 2), 31);
  };
  auto consumed = make();
  const Trace first = Trace::capture({consumed.get()}, 2000);
  ASSERT_GT(first.size(), 100u);

  // Correct workflow: a fresh identically-seeded source re-captures the
  // identical record stream.
  auto fresh = make();
  const Trace again = Trace::capture({fresh.get()}, 2000);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again.records()[i].cycle, first.records()[i].cycle);
    EXPECT_EQ(again.records()[i].dst, first.records()[i].dst);
  }

  // Misuse: reusing the consumed source does NOT rewind — the continuation
  // diverges from the capture (if it matched, capture would silently be
  // side-effect free and this contract would be moot).
  const Trace reused = Trace::capture({consumed.get()}, 2000);
  bool diverged = reused.size() != first.size();
  for (std::size_t i = 0; !diverged && i < first.size(); ++i)
    diverged = reused.records()[i].cycle != first.records()[i].cycle ||
               reused.records()[i].dst != first.records()[i].dst;
  EXPECT_TRUE(diverged) << "capture unexpectedly left the source stream untouched";
}

}  // namespace
}  // namespace nbtinoc::traffic
