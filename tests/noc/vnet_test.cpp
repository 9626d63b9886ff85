// Virtual-network tests: VC partition isolation, per-vnet gating decisions,
// and request/reply protocol traffic (Table I's 2-vnet configuration).

#include <gtest/gtest.h>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/traffic/request_reply.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig two_vnet_config(int width = 2, int vcs_per_vnet = 2) {
  NocConfig c;
  c.width = width;
  c.height = width;
  c.num_vcs = vcs_per_vnet;
  c.num_vnets = 2;
  c.buffer_depth = 4;
  c.packet_length = 4;
  return c;
}

/// Source pinned to one vnet.
class VnetSource final : public ITrafficSource {
 public:
  VnetSource(NodeId dst, int length, int vnet, double rate, std::uint64_t seed)
      : dst_(dst), length_(length), vnet_(vnet), rate_(rate), rng_(seed) {}
  std::optional<PacketRequest> maybe_generate(sim::Cycle) override {
    if (!rng_.next_bernoulli(rate_)) return std::nullopt;
    return PacketRequest{dst_, length_, vnet_};
  }

 private:
  NodeId dst_;
  int length_;
  int vnet_;
  double rate_;
  util::Xoshiro256 rng_;
};

TEST(VirtualNetworks, ConfigPartitionHelpers) {
  const NocConfig c = two_vnet_config(2, 2);
  EXPECT_EQ(c.total_vcs(), 4);
  EXPECT_EQ(c.vnet_of_vc(0), 0);
  EXPECT_EQ(c.vnet_of_vc(1), 0);
  EXPECT_EQ(c.vnet_of_vc(2), 1);
  EXPECT_EQ(c.vnet_of_vc(3), 1);
  EXPECT_EQ(c.first_vc_of_vnet(1), 2);
}

TEST(VirtualNetworks, InputPortsHaveTotalVcs) {
  Network net(two_vnet_config());
  EXPECT_EQ(net.router(0).input(Dir::Local).num_vcs(), 4);
}

TEST(VirtualNetworks, PacketsStayInTheirPartition) {
  Network net(two_vnet_config());
  net.set_traffic_source(0, std::make_unique<VnetSource>(3, 4, /*vnet=*/1, 0.1, 7));
  net.set_traffic_source(1, std::make_unique<VnetSource>(2, 4, /*vnet=*/0, 0.1, 8));
  for (int i = 0; i < 4000; ++i) {
    net.step();
    // Invariant: any Active VC holding flits only holds its own vnet's.
    for (NodeId id = 0; id < net.nodes(); ++id) {
      for (int p = 0; p < kNumDirs; ++p) {
        const Dir port = static_cast<Dir>(p);
        if (!net.router(id).has_input(port)) continue;
        const auto& iu = net.router(id).input(port);
        for (int v = 0; v < iu.num_vcs(); ++v) {
          if (iu.vc(v).empty()) continue;
          ASSERT_EQ(net.config().vnet_of_vc(v), iu.vc(v).front().vnet)
              << "vnet isolation violated at router " << id;
        }
      }
    }
  }
  EXPECT_GT(net.stats().counter("noc.packets_ejected"), 50u);
}

TEST(VirtualNetworks, OutOfRangeVnetThrows) {
  Network net(two_vnet_config());
  net.set_traffic_source(0, std::make_unique<VnetSource>(3, 4, /*vnet=*/2, 1.0, 7));
  EXPECT_THROW(net.run(10), std::logic_error);
}

TEST(VirtualNetworks, BothPartitionsDeliverConcurrently) {
  Network net(two_vnet_config());
  net.set_traffic_source(0, std::make_unique<VnetSource>(3, 4, 0, 0.05, 1));
  net.set_traffic_source(3, std::make_unique<VnetSource>(0, 4, 1, 0.05, 2));
  net.run(5000);
  EXPECT_GT(net.ni(0).packets_ejected(), 10u);
  EXPECT_GT(net.ni(3).packets_ejected(), 10u);
}

TEST(VirtualNetworks, GatingRunsPerVnet) {
  // Under sensor-wise with traffic only on vnet 1, vnet 0's VCs must be
  // fully gated (no awake reservation wasted on a silent vnet).
  Network net(two_vnet_config());
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 42);
  ctrl.attach();
  net.set_traffic_source(0, std::make_unique<VnetSource>(3, 4, /*vnet=*/1, 0.3, 7));
  net.run_with_warmup(2000, 8000);
  const auto duties = net.duty_cycles_percent(3, Dir::Local);  // r3 local port is quiet
  // Check a transit port on the path 0 -> 3 (e.g. router 1's West input).
  const auto transit = net.duty_cycles_percent(1, Dir::West);
  // vnet 0 subrange (VC0,1) has no traffic at all: near-zero duty.
  EXPECT_LT(transit[0], 1.0);
  EXPECT_LT(transit[1], 1.0);
  // vnet 1 subrange carries everything.
  EXPECT_GT(transit[2] + transit[3], 5.0);
  (void)duties;
}

TEST(VirtualNetworks, BaselineStillHundredPercentEverywhere) {
  Network net(two_vnet_config());
  net.set_traffic_source(0, std::make_unique<VnetSource>(3, 4, 1, 0.2, 3));
  net.run_with_warmup(500, 2000);
  for (double d : net.duty_cycles_percent(0, Dir::Local)) EXPECT_DOUBLE_EQ(d, 100.0);
}

}  // namespace
}  // namespace nbtinoc::noc

namespace nbtinoc::traffic {
namespace {

TEST(RequestReply, RejectsBadSetups) {
  noc::NocConfig single;
  single.width = 2;
  single.height = 2;
  noc::Network net(single);
  EXPECT_THROW(install_request_reply_traffic(net, {}, 1), std::invalid_argument);

  ReplyBoard board(4);
  RequestReplyConfig same_vnet;
  same_vnet.reply_vnet = same_vnet.request_vnet;
  EXPECT_THROW(RequestReplySource(0, 4, same_vnet, &board, 1), std::invalid_argument);
  EXPECT_THROW(RequestReplySource(0, 4, {}, nullptr, 1), std::invalid_argument);
  RequestReplyConfig bad_rate;
  bad_rate.request_rate = 1.5;
  EXPECT_THROW(RequestReplySource(0, 4, bad_rate, &board, 1), std::invalid_argument);
}

TEST(RequestReply, RepliesFollowRequests) {
  ReplyBoard board(4);
  RequestReplyConfig cfg;
  cfg.request_rate = 1.0;  // request every cycle
  cfg.service_delay = 5;
  RequestReplySource requester(0, 4, cfg, &board, 11);

  const auto req = requester.maybe_generate(0);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->vnet, cfg.request_vnet);
  EXPECT_EQ(req->length, cfg.request_length);
  const noc::NodeId server = req->dst;

  RequestReplyConfig quiet = cfg;
  quiet.request_rate = 0.0;
  RequestReplySource responder(server, 4, quiet, &board, 12);
  EXPECT_FALSE(responder.maybe_generate(2).has_value());  // not ready yet
  const auto reply = responder.maybe_generate(5);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->vnet, cfg.reply_vnet);
  EXPECT_EQ(reply->length, cfg.reply_length);
  EXPECT_EQ(reply->dst, 0);
  EXPECT_EQ(responder.replies_sent(), 1u);
}

TEST(RequestReply, EndToEndOverTwoVnets) {
  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.num_vcs = 2;
  cfg.num_vnets = 2;
  cfg.buffer_depth = 4;
  noc::Network net(cfg);
  RequestReplyConfig rr;
  rr.request_rate = 0.02;
  install_request_reply_traffic(net, rr, 99);
  net.run(20'000);
  // Both short requests and long replies flow; replies dominate flit counts.
  const auto packets = net.stats().counter("noc.packets_ejected");
  const auto flits = net.stats().counter("noc.flits_ejected");
  EXPECT_GT(packets, 100u);
  // Mean packet length sits between request (1) and reply (9) lengths.
  const double mean_len = static_cast<double>(flits) / static_cast<double>(packets);
  EXPECT_GT(mean_len, 2.0);
  EXPECT_LT(mean_len, 9.0);
}

TEST(RequestReply, NetworkResumesFromASnapshot) {
  // The shared ReplyBoard rides in node 0's source, so a network restored
  // mid-run, pending replies included, must continue exactly as the
  // uninterrupted one: the two end on identical checkpoint bytes.
  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.num_vcs = 2;
  cfg.num_vnets = 2;
  RequestReplyConfig rr;
  rr.request_rate = 0.2;  // ~16 replies pending at any time
  noc::Network straight(cfg);
  install_request_reply_traffic(straight, rr, 7);
  straight.run(3'000);
  sim::SnapshotWriter paused;
  straight.save_state(paused);
  straight.run(2'000);

  noc::Network resumed(cfg);
  install_request_reply_traffic(resumed, rr, 7);
  sim::SnapshotReader reader(paused.data());
  resumed.load_state(reader);
  resumed.run(2'000);

  sim::SnapshotWriter want;
  sim::SnapshotWriter got;
  straight.save_state(want);
  resumed.save_state(got);
  EXPECT_GT(straight.stats().counter("noc.packets_ejected"), 1'000u);
  EXPECT_TRUE(want.data() == got.data()) << "resumed network drifted from the uninterrupted one";
}

}  // namespace
}  // namespace nbtinoc::traffic
