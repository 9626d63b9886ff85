#include "nbtinoc/traffic/synthetic.hpp"

#include <gtest/gtest.h>

namespace nbtinoc::traffic {
namespace {

DestinationPattern uniform() { return DestinationPattern(PatternKind::kUniform, 4, 4); }

TEST(SyntheticSource, RejectsBadParameters) {
  EXPECT_THROW(SyntheticSource(0, -0.1, 4, uniform(), 1), std::invalid_argument);
  EXPECT_THROW(SyntheticSource(0, 0.1, 0, uniform(), 1), std::invalid_argument);
  EXPECT_THROW(SyntheticSource(0, 5.0, 4, uniform(), 1), std::invalid_argument);
}

TEST(SyntheticSource, ZeroRateGeneratesNothing) {
  SyntheticSource src(0, 0.0, 4, uniform(), 2);
  for (sim::Cycle t = 0; t < 1000; ++t) EXPECT_FALSE(src.maybe_generate(t).has_value());
}

TEST(SyntheticSource, MeanFlitRateMatchesConfig) {
  const double rate = 0.2;
  const int plen = 4;
  SyntheticSource src(0, rate, plen, uniform(), 3);
  const int cycles = 200000;
  long flits = 0;
  for (sim::Cycle t = 0; t < static_cast<sim::Cycle>(cycles); ++t)
    if (auto req = src.maybe_generate(t)) flits += req->length;
  EXPECT_NEAR(flits / static_cast<double>(cycles), rate, 0.01);
}

TEST(SyntheticSource, DeterministicPerSeed) {
  SyntheticSource a(0, 0.3, 4, uniform(), 7);
  SyntheticSource b(0, 0.3, 4, uniform(), 7);
  for (sim::Cycle t = 0; t < 2000; ++t) {
    const auto ra = a.maybe_generate(t);
    const auto rb = b.maybe_generate(t);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra) {
      EXPECT_EQ(ra->dst, rb->dst);
      EXPECT_EQ(ra->length, rb->length);
    }
  }
}

TEST(SyntheticSource, PacketLengthHonored) {
  SyntheticSource src(0, 0.5, 9, DestinationPattern(PatternKind::kUniform, 2, 2), 5);
  for (sim::Cycle t = 0; t < 1000; ++t) {
    if (auto req = src.maybe_generate(t)) {
      EXPECT_EQ(req->length, 9);
    }
  }
}

TEST(InstallSyntheticTraffic, EveryNodeGetsASource) {
  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.num_vcs = 2;
  noc::Network net(cfg);
  install_uniform_traffic(net, 0.3, 11);
  net.run(3000);
  EXPECT_GT(net.stats().counter("noc.packets_offered"), 100u);
  EXPECT_GT(net.stats().counter("noc.packets_ejected"), 50u);
  // All nodes inject (independent streams).
  for (noc::NodeId id = 0; id < 4; ++id) EXPECT_GT(net.ni(id).flits_injected(), 0u);
}

TEST(InstallSyntheticTraffic, DifferentNodesDifferentStreams) {
  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  noc::Network net(cfg);
  install_uniform_traffic(net, 0.2, 13);
  net.run(5000);
  // With per-node independent streams, injected counts differ with
  // overwhelming probability.
  const auto a = net.ni(0).flits_injected();
  const auto b = net.ni(1).flits_injected();
  const auto c = net.ni(2).flits_injected();
  EXPECT_FALSE(a == b && b == c);
}

}  // namespace
}  // namespace nbtinoc::traffic
