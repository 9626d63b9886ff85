#include "nbtinoc/noc/output_unit.hpp"

#include <gtest/gtest.h>

namespace nbtinoc::noc {
namespace {

NocConfig config(int vcs = 4, int depth = 4) {
  NocConfig c;
  c.width = 2;
  c.height = 2;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  return c;
}

TEST(OutputUnit, MeshPortStartsFullCredits) {
  OutputUnit ou(Dir::East, config(4, 4), /*ejection=*/false);
  EXPECT_FALSE(ou.is_ejection());
  for (int v = 0; v < 4; ++v) EXPECT_EQ(ou.credit_view().credits(v), 4);
}

TEST(OutputUnit, EjectionPortHasNoCredits) {
  OutputUnit ou(Dir::Local, config(), /*ejection=*/true);
  EXPECT_TRUE(ou.is_ejection());
  EXPECT_THROW(ou.credit_view().credits(0), std::out_of_range);
}

TEST(OutputUnit, CreditAccounting) {
  OutputUnit ou(Dir::East, config(2, 2), false);
  CreditView& view = ou.credit_view();
  view.send(0);
  view.send(0);
  EXPECT_EQ(view.credits(0), 0);
  EXPECT_EQ(view.credits(1), 2);
  EXPECT_THROW(view.send(0), std::logic_error);
  view.receive_credit(0);
  EXPECT_EQ(view.credits(0), 1);
}

TEST(OutputUnit, CreditOverflowThrows) {
  OutputUnit ou(Dir::East, config(2, 2), false);
  EXPECT_THROW(ou.credit_view().receive_credit(0), std::logic_error);  // already at depth
}

TEST(OutputUnit, ArbiterSizes) {
  OutputUnit ou(Dir::East, config(4), false);
  EXPECT_EQ(ou.va_arbiter().size(), static_cast<std::size_t>(kNumDirs * 4));
  EXPECT_EQ(ou.vc_select().size(), 4u);
  EXPECT_EQ(ou.sa_arbiter().size(), static_cast<std::size_t>(kNumDirs));
}

TEST(NocConfigTest, ValidateAcceptsPaperSetups) {
  NocConfig c = config(2, 4);
  EXPECT_NO_THROW(c.validate());
  c.num_vcs = 4;
  EXPECT_NO_THROW(c.validate());
}

TEST(NocConfigTest, ValidateRejectsDegenerate) {
  NocConfig c = config();
  c.width = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = config();
  c.width = 1;
  c.height = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = config();
  c.buffer_depth = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = config();
  c.packet_length = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(NocConfigTest, DescribeMentionsGeometry) {
  NocConfig c = config(4, 8);
  c.wakeup_latency = 3;
  const std::string d = c.describe();
  EXPECT_NE(d.find("2x2"), std::string::npos);
  EXPECT_NE(d.find("4 VCs"), std::string::npos);
  EXPECT_NE(d.find("wakeup latency 3"), std::string::npos);
}

TEST(NocConfigTest, NodesProduct) {
  NocConfig c;
  c.width = 4;
  c.height = 3;
  EXPECT_EQ(c.nodes(), 12);
}

}  // namespace
}  // namespace nbtinoc::noc
