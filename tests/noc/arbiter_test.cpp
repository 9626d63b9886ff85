#include "nbtinoc/noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace nbtinoc::noc {
namespace {

TEST(RoundRobinArbiter, NoRequestsNoGrant) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({false, false, false, false}), -1);
  EXPECT_EQ(arb.arbitrate(std::vector<bool>{}), -1);
}

TEST(RoundRobinArbiter, SingleRequesterWins) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({false, false, true, false}), 2);
}

TEST(RoundRobinArbiter, PointerAdvancesPastWinner) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 0);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 1);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 2);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 3);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 0);
}

TEST(RoundRobinArbiter, FairUnderFullLoad) {
  RoundRobinArbiter arb(3);
  std::map<int, int> wins;
  for (int i = 0; i < 300; ++i) ++wins[arb.arbitrate({true, true, true})];
  EXPECT_EQ(wins[0], 100);
  EXPECT_EQ(wins[1], 100);
  EXPECT_EQ(wins[2], 100);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 0);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 2);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 0);
}

TEST(RoundRobinArbiter, PeekDoesNotAdvance) {
  RoundRobinArbiter arb(2);
  EXPECT_EQ(arb.peek({true, true}), 0);
  EXPECT_EQ(arb.peek({true, true}), 0);
  EXPECT_EQ(arb.arbitrate({true, true}), 0);
  EXPECT_EQ(arb.peek({true, true}), 1);
}

TEST(RoundRobinArbiter, AdvancePast) {
  RoundRobinArbiter arb(4);
  arb.advance_past(2);
  EXPECT_EQ(arb.peek({true, true, true, true}), 3);
  arb.advance_past(3);
  EXPECT_EQ(arb.peek({true, true, true, true}), 0);
}

TEST(RoundRobinArbiter, ResizeResetsOutOfRangePointer) {
  RoundRobinArbiter arb(4);
  arb.advance_past(2);  // pointer = 3
  arb.resize(2);
  EXPECT_EQ(arb.peek({true, true}), 0);
}

TEST(RoundRobinArbiter, ShortRequestVectorTolerated) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate(std::vector<bool>{true}), 0);  // treats missing entries as absent
}

// --- RequestSet (the allocation-free scratch form of the request vector) ---

TEST(RequestSet, SetTestClearAny) {
  RequestSet set(70);  // spans two 64-bit words
  EXPECT_EQ(set.size(), 70u);
  EXPECT_FALSE(set.any());
  set.set(0);
  set.set(63);
  set.set(69);
  EXPECT_TRUE(set.any());
  EXPECT_TRUE(set.test(0));
  EXPECT_TRUE(set.test(63));
  EXPECT_TRUE(set.test(69));
  EXPECT_FALSE(set.test(1));
  EXPECT_FALSE(set.test(64));
  set.clear();
  EXPECT_FALSE(set.any());
  EXPECT_FALSE(set.test(63));
}

// The two overloads must grant identically: the RequestSet path replaced the
// vector<bool> path in the router stages, and its word-level cyclic find must
// not change arbitration. Sizes cross the 64-bit word boundaries, pointers
// start anywhere, densities run from sparse to dense, and every other trial
// offers a request set shorter than the arbiter (the scan then wraps at the
// set's size). The vector<bool> overload is the reference.
TEST(RequestSet, ArbitrateMatchesVectorBoolOverload) {
  std::uint32_t lcg = 12345;
  const auto next_below = [&lcg](std::size_t bound) {
    lcg = lcg * 1664525u + 1013904223u;
    return static_cast<std::size_t>(lcg >> 8) % bound;
  };
  constexpr std::size_t kDensityPercent[] = {3, 20, 50, 95};
  for (std::size_t size = 1; size <= 130; ++size) {
    for (int trial = 0; trial < 8; ++trial) {
      RoundRobinArbiter vec_arb(size);
      RoundRobinArbiter set_arb(size);
      const std::size_t pointer = next_below(size);
      vec_arb.set_pointer(pointer);
      set_arb.set_pointer(pointer);
      const std::size_t requesters = trial % 2 == 0 ? size : 1 + next_below(size);
      const std::size_t density = kDensityPercent[trial / 2];
      for (int round = 0; round < 20; ++round) {
        std::vector<bool> requests(requesters);
        RequestSet set(requesters);
        for (std::size_t i = 0; i < requesters; ++i) {
          if (next_below(100) >= density) continue;
          requests[i] = true;
          set.set(i);
        }
        SCOPED_TRACE("size " + std::to_string(size) + ", requesters " +
                     std::to_string(requesters) + ", pointer " +
                     std::to_string(set_arb.pointer()));
        EXPECT_EQ(vec_arb.peek(requests), set_arb.peek(set));
        EXPECT_EQ(vec_arb.arbitrate(requests), set_arb.arbitrate(set));
        ASSERT_EQ(vec_arb.pointer(), set_arb.pointer());
      }
    }
  }
}

TEST(RequestSet, ShorterThanArbiterTolerated) {
  RoundRobinArbiter arb(4);
  RequestSet set(1);
  set.set(0);
  EXPECT_EQ(arb.arbitrate(set), 0);
}

}  // namespace
}  // namespace nbtinoc::noc
