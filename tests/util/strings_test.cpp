#include "nbtinoc/util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace nbtinoc::util {
namespace {

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("Sensor-Wise"), "sensor-wise");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("rr-no-sensor", "rr"));
  EXPECT_FALSE(starts_with("rr", "rr-no-sensor"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, ParseNumbersIsStrict) {
  EXPECT_EQ(parse_int("42", "n"), 42);
  EXPECT_EQ(parse_int("-5", "n"), -5);
  EXPECT_DOUBLE_EQ(parse_double("0.25", "x"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("1e6", "x"), 1e6);
  // Finiteness is the validators' business: nan parses.
  EXPECT_TRUE(std::isnan(parse_double("nan", "x")));
  for (const char* bad : {"", " ", "1e6", "4x4", "0.5", "12 ", "99999999999999999999"})
    EXPECT_THROW(parse_int(bad, "n"), std::invalid_argument) << "'" << bad << "'";
  for (const char* bad : {"", "0.2x", "0.1.5", "1e999", "x"})
    EXPECT_THROW(parse_double(bad, "x"), std::invalid_argument) << "'" << bad << "'";
  // The message names the key and the text.
  try {
    parse_int("1e6", "measure_cycles");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "measure_cycles: '1e6' is not an integer");
  }
}

}  // namespace
}  // namespace nbtinoc::util
