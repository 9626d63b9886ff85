#include "nbtinoc/util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace nbtinoc::util {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, SpaceSeparatedValue) {
  const auto args = make({"prog", "--rate", "0.3"});
  EXPECT_DOUBLE_EQ(args.get_double_or("rate", 0.0), 0.3);
}

TEST(CliArgs, EqualsValue) {
  const auto args = make({"prog", "--cores=16"});
  EXPECT_EQ(args.get_int_or("cores", 0), 16);
}

TEST(CliArgs, BareFlagIsTrue) {
  const auto args = make({"prog", "--full"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_TRUE(args.get_bool_or("full", false));
}

TEST(CliArgs, BareFlagFollowedByFlag) {
  const auto args = make({"prog", "--full", "--vcs", "4"});
  EXPECT_TRUE(args.get_bool_or("full", false));
  EXPECT_EQ(args.get_int_or("vcs", 0), 4);
}

TEST(CliArgs, MissingUsesFallback) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_or("policy", "sw"), "sw");
  EXPECT_EQ(args.get_int_or("n", 7), 7);
  EXPECT_FALSE(args.get_bool_or("x", false));
  EXPECT_FALSE(args.get("anything").has_value());
}

TEST(CliArgs, MalformedNumbersThrow) {
  EXPECT_THROW(make({"prog", "--cycles", "2e5"}).get_int_or("cycles", 0), std::invalid_argument);
  EXPECT_THROW(make({"prog", "--rate", "0.1.5"}).get_double_or("rate", 0.0),
               std::invalid_argument);
  // A numeric flag given without its value is an error, not the fallback.
  EXPECT_THROW(make({"prog", "--cycles", "--vcs", "4"}).get_int_or("cycles", 7),
               std::invalid_argument);
  try {
    make({"prog", "--cycles=2e5"}).get_int_or("cycles", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--cycles: '2e5' is not an integer");
  }
}

TEST(CliArgs, NarrowedIntegersRejectValuesTheirTypeCannotHold) {
  EXPECT_EQ(make({"prog", "--cores", "16"}).get_int_as<int>("cores", 4), 16);
  EXPECT_EQ(make({"prog"}).get_int_as<unsigned>("workers", 3), 3u);
  EXPECT_EQ(
      make({"prog", "--cycles", "9223372036854775807"}).get_int_as<std::uint64_t>("cycles", 1),
      9'223'372'036'854'775'807ULL);
  // Past int: a bare static_cast<int> reads this as 4.
  EXPECT_THROW(make({"prog", "--cores", "4294967300"}).get_int_as<int>("cores", 16),
               std::invalid_argument);
  EXPECT_THROW(make({"prog", "--cycles", "-5"}).get_int_as<std::uint64_t>("cycles", 1),
               std::invalid_argument);
  // Malformed text still fails as in get_int_or.
  EXPECT_THROW(make({"prog", "--vcs", "4x"}).get_int_as<int>("vcs", 4), std::invalid_argument);
  try {
    make({"prog", "--workers", "-1"}).get_int_as<unsigned>("workers", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--workers: -1 is outside [0, 4294967295]");
  }
}

TEST(CliArgs, BoolSpellings) {
  EXPECT_TRUE(make({"p", "--a=true"}).get_bool_or("a", false));
  EXPECT_TRUE(make({"p", "--a=1"}).get_bool_or("a", false));
  EXPECT_TRUE(make({"p", "--a=yes"}).get_bool_or("a", false));
  EXPECT_FALSE(make({"p", "--a=0"}).get_bool_or("a", true));
  EXPECT_FALSE(make({"p", "--a=false"}).get_bool_or("a", true));
}

TEST(CliArgs, Positional) {
  const auto args = make({"prog", "input.csv", "--x", "1", "out.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "out.csv");
  EXPECT_EQ(args.program(), "prog");
}

}  // namespace
}  // namespace nbtinoc::util
