#include "nbtinoc/noc/network.hpp"

#include <gtest/gtest.h>

#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig mesh(int w, int h, int vcs = 2, int depth = 4, int plen = 4) {
  NocConfig c;
  c.width = w;
  c.height = h;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  c.packet_length = plen;
  return c;
}

/// Emits a fixed list of (cycle, dst, length) packets.
class ScriptedSource final : public ITrafficSource {
 public:
  explicit ScriptedSource(std::vector<std::tuple<sim::Cycle, NodeId, int>> script)
      : script_(std::move(script)) {}
  std::optional<PacketRequest> maybe_generate(sim::Cycle now) override {
    if (next_ < script_.size() && std::get<0>(script_[next_]) == now) {
      const auto& [cycle, dst, len] = script_[next_++];
      return PacketRequest{dst, len};
    }
    return std::nullopt;
  }

 private:
  std::vector<std::tuple<sim::Cycle, NodeId, int>> script_;
  std::size_t next_ = 0;
};

TEST(Network, TopologyPortsExistOnlyWhereNeighborsExist) {
  Network net(mesh(4, 4));
  // Corner router 0: inputs from East, South neighbors + Local.
  EXPECT_FALSE(net.router(0).has_input(Dir::North));
  EXPECT_FALSE(net.router(0).has_input(Dir::West));
  EXPECT_TRUE(net.router(0).has_input(Dir::East));
  EXPECT_TRUE(net.router(0).has_input(Dir::South));
  EXPECT_TRUE(net.router(0).has_input(Dir::Local));
  // Center router 5: all five.
  for (int p = 0; p < kNumDirs; ++p) EXPECT_TRUE(net.router(5).has_input(static_cast<Dir>(p)));
}

TEST(Network, SinglePacketDeliveredWithPipelineLatency) {
  Network net(mesh(2, 2));
  // One 4-flit packet node 0 -> node 1 (single hop east), injected at cycle 5.
  net.set_traffic_source(0, std::make_unique<ScriptedSource>(
                                std::vector<std::tuple<sim::Cycle, NodeId, int>>{{5, 1, 4}}));
  net.run(60);
  EXPECT_EQ(net.stats().counter("noc.packets_ejected"), 1u);
  EXPECT_EQ(net.stats().counter("noc.flits_ejected"), 4u);
  EXPECT_TRUE(net.drained());
  const auto* lat = net.stats().distribution("noc.packet_latency");
  ASSERT_NE(lat, nullptr);
  // NI(VA+send) + inject link + router pipeline x2 routers + eject link +
  // 3 extra serialization cycles for the 3 trailing flits: small constant.
  EXPECT_GE(lat->mean(), 10.0);
  EXPECT_LE(lat->mean(), 20.0);
}

TEST(Network, MultiHopLatencyGrowsLinearly) {
  Network net4(mesh(4, 1));
  net4.set_traffic_source(0, std::make_unique<ScriptedSource>(
                                 std::vector<std::tuple<sim::Cycle, NodeId, int>>{{5, 3, 4}}));
  net4.run(100);
  const double lat3hops = net4.stats().distribution("noc.packet_latency")->mean();

  Network net2(mesh(2, 1));
  net2.set_traffic_source(0, std::make_unique<ScriptedSource>(
                                 std::vector<std::tuple<sim::Cycle, NodeId, int>>{{5, 1, 4}}));
  net2.run(100);
  const double lat1hop = net2.stats().distribution("noc.packet_latency")->mean();

  // Each extra hop costs the 3-stage pipeline depth.
  EXPECT_NEAR(lat3hops - lat1hop, 6.0, 0.5);
}

TEST(Network, ExtraPipelineStagesAddPerHopLatency) {
  // 3-stage (default) vs 5-stage router: each extra stage costs one cycle
  // per hop on every flit.
  const auto latency_with = [](int extra) {
    NocConfig c = mesh(2, 1);
    c.extra_pipeline_stages = extra;
    Network net(c);
    net.set_traffic_source(0, std::make_unique<ScriptedSource>(
                                  std::vector<std::tuple<sim::Cycle, NodeId, int>>{{5, 1, 4}}));
    net.run(100);
    return net.stats().distribution("noc.packet_latency")->mean();
  };
  const double base = latency_with(0);
  // 2 routers on the path (source + destination), 2 extra stages each.
  EXPECT_NEAR(latency_with(2) - base, 4.0, 0.5);
}

TEST(Network, FlitConservationUnderLoad) {
  Network net(mesh(4, 4, 2));
  traffic::install_uniform_traffic(net, 0.1, 1234);
  net.run(20'000);
  // Stop generation and drain.
  for (NodeId id = 0; id < net.nodes(); ++id)
    net.set_traffic_source(id, std::make_unique<SilentSource>());
  sim::Cycle guard = 0;
  while (!net.drained() && guard++ < 200'000) net.step();
  bool queues_empty = true;
  for (NodeId id = 0; id < net.nodes(); ++id) queues_empty &= net.ni(id).queue_depth() == 0;
  EXPECT_TRUE(net.drained());
  EXPECT_TRUE(queues_empty);
  EXPECT_EQ(net.stats().counter("noc.flits_injected"), net.stats().counter("noc.flits_ejected"));
}

TEST(Network, PacketsArriveAtCorrectDestination) {
  // dst checking is implicit (ejection only at route Local == dst), but
  // verify each NI ejects exactly the packets addressed to it.
  Network net(mesh(2, 2));
  net.set_traffic_source(
      0, std::make_unique<ScriptedSource>(std::vector<std::tuple<sim::Cycle, NodeId, int>>{
             {5, 3, 4}, {30, 2, 4}, {60, 1, 4}}));
  net.run(200);
  EXPECT_EQ(net.stats().counter("noc.packets_ejected"), 3u);
  EXPECT_EQ(net.ni(0).packets_ejected(), 0u);
  EXPECT_EQ(net.ni(1).packets_ejected(), 1u);
  EXPECT_EQ(net.ni(2).packets_ejected(), 1u);
  EXPECT_EQ(net.ni(3).packets_ejected(), 1u);
}

TEST(Network, BaselineDutyIsHundredPercentEverywhere) {
  Network net(mesh(2, 2, 2));
  traffic::install_uniform_traffic(net, 0.2, 99);
  net.run_with_warmup(1000, 5000);
  for (NodeId id = 0; id < net.nodes(); ++id) {
    for (int p = 0; p < kNumDirs; ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!net.router(id).has_input(port)) continue;
      for (double duty : net.duty_cycles_percent(id, port)) EXPECT_DOUBLE_EQ(duty, 100.0);
    }
  }
}

TEST(Network, WarmupFenceExcludesWarmupCycles) {
  Network net(mesh(2, 2, 2));
  net.run_with_warmup(1000, 500);
  const auto& tracker = net.router(0).input(Dir::Local).trackers().at(0);
  EXPECT_EQ(tracker.total_cycles(), 500u);
}

TEST(Network, DutyCyclesForMissingPortThrows) {
  Network net(mesh(2, 2));
  EXPECT_THROW(net.duty_cycles_percent(0, Dir::North), std::invalid_argument);
}

TEST(Network, ZeroLoadStaysDrained) {
  Network net(mesh(2, 2));
  net.run(1000);
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.stats().counter("noc.flits_injected"), 0u);
}

TEST(Network, RejectsInvalidConfig) {
  EXPECT_THROW(Network{mesh(1, 1)}, std::invalid_argument);
  NocConfig c = mesh(2, 2);
  c.num_vcs = 0;
  EXPECT_THROW(Network{c}, std::invalid_argument);
}

TEST(Network, SaturationStillConservesFlits) {
  // Offered load far beyond capacity: queues grow but nothing is lost.
  Network net(mesh(2, 2, 2, 2, 4));
  traffic::install_uniform_traffic(net, 0.9, 5);
  net.run(5'000);
  const auto injected = net.stats().counter("noc.flits_injected");
  const auto ejected = net.stats().counter("noc.flits_ejected");
  EXPECT_GT(injected, 1000u);
  EXPECT_LE(ejected, injected);
  // Everything injected is either ejected or still buffered/in flight.
  for (NodeId id = 0; id < net.nodes(); ++id)
    net.set_traffic_source(id, std::make_unique<SilentSource>());
  sim::Cycle guard = 0;
  while (!net.drained() && guard++ < 500'000) net.step();
  EXPECT_EQ(net.stats().counter("noc.flits_injected"), net.stats().counter("noc.flits_ejected"));
}

// A router kill that cuts a terminal off: the packets queued for it and the
// ones offered to it afterwards count as fault.unroutable_packets, and none
// of them is injected, under either scheduler.
TEST(Network, RouterKillCountsUnroutablePackets) {
  for (const SchedulerMode mode : {SchedulerMode::kStepped, SchedulerMode::kActiveSet}) {
    SCOPED_TRACE(mode == SchedulerMode::kStepped ? "stepped" : "active set");
    Network net(mesh(3, 3));
    sim::StructuralFault kill;
    kill.cycle = 40;
    kill.router = 4;  // the center router and its terminal
    sim::FaultPlan plan;
    plan.structural.push_back(kill);
    sim::FaultInjector injector(plan, 1);
    injector.bind_stats(&net.stats());
    net.set_fault_injector(&injector);
    // One 4-flit packet to terminal 4 every cycle is more than node 0 can
    // inject, so its queue holds some at the kill.
    std::vector<std::tuple<sim::Cycle, NodeId, int>> script;
    for (sim::Cycle c = 0; c < 80; ++c) script.emplace_back(c, 4, 4);
    net.set_traffic_source(0, std::make_unique<ScriptedSource>(std::move(script)));
    net.set_scheduler_mode(mode);
    net.run(40);
    const std::uint64_t queued = net.ni(0).queue_depth();
    ASSERT_GT(queued, 0u);
    EXPECT_EQ(net.stats().counter("fault.unroutable_packets"), 0u);
    const std::uint64_t injected = net.ni(0).flits_injected();
    for (int i = 0; i < 40; ++i) {
      net.run(1);
      ASSERT_EQ(net.ni(0).flits_injected(), injected) << "cycle " << net.clock().now();
    }
    EXPECT_EQ(net.ni(0).queue_depth(), 0u);
    EXPECT_EQ(net.stats().counter("fault.unroutable_packets"), queued + 40);
  }
}

TEST(Network, LongPacketsWormholeThroughShallowBuffers) {
  // packet length 9 > buffer depth 2: wormhole must stream without deadlock.
  Network net(mesh(2, 2, 2, 2, 9));
  net.set_traffic_source(0, std::make_unique<ScriptedSource>(
                                std::vector<std::tuple<sim::Cycle, NodeId, int>>{{5, 3, 9}}));
  net.run(300);
  EXPECT_EQ(net.stats().counter("noc.packets_ejected"), 1u);
  EXPECT_EQ(net.stats().counter("noc.flits_ejected"), 9u);
}

}  // namespace
}  // namespace nbtinoc::noc
