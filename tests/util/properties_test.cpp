#include "nbtinoc/util/properties.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace nbtinoc::util {
namespace {

TEST(Properties, ParsesKeyValues) {
  const auto props = parse_properties("a = 1\nb=two\n  c  =  3.5  \n");
  EXPECT_EQ(props.at("a"), "1");
  EXPECT_EQ(props.at("b"), "two");
  EXPECT_EQ(props.at("c"), "3.5");
}

TEST(Properties, SkipsCommentsAndBlankLines) {
  const auto props = parse_properties("# header\n\na = 1  # trailing\n   \n# b = 2\n");
  EXPECT_EQ(props.size(), 1u);
  EXPECT_EQ(props.at("a"), "1");
}

TEST(Properties, LaterDuplicateWins) {
  const auto props = parse_properties("a = 1\na = 2\n");
  EXPECT_EQ(props.at("a"), "2");
}

TEST(Properties, MalformedLineThrows) {
  EXPECT_THROW(parse_properties("no equals sign here\n"), std::runtime_error);
  EXPECT_THROW(parse_properties("= value\n"), std::runtime_error);
}

TEST(Properties, TypedGetters) {
  const auto props = parse_properties("n = 42\nx = 0.25\nflag = yes\nname = mesh\n");
  EXPECT_EQ(get_int_or(props, "n", 0), 42);
  EXPECT_DOUBLE_EQ(get_double_or(props, "x", 0.0), 0.25);
  EXPECT_TRUE(get_bool_or(props, "flag", false));
  EXPECT_EQ(get_or(props, "name", ""), "mesh");
  EXPECT_EQ(get_int_or(props, "missing", 7), 7);
  EXPECT_FALSE(get_bool_or(props, "missing", false));
  // Numbers are whole values or an error naming the key, never a prefix.
  const auto bad = parse_properties("n = 4x4\nx = 0.2x\nempty =\n");
  EXPECT_THROW(get_int_or(bad, "n", 0), std::invalid_argument);
  EXPECT_THROW(get_double_or(bad, "x", 0.0), std::invalid_argument);
  EXPECT_THROW(get_int_or(bad, "empty", 0), std::invalid_argument);
}

TEST(Properties, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "nbtinoc_props_test.cfg";
  {
    std::ofstream out(path);
    out << "# scenario\nmesh_width = 4\ninjection_rate = 0.3\n";
  }
  const auto props = load_properties(path);
  EXPECT_EQ(get_int_or(props, "mesh_width", 0), 4);
  std::remove(path.c_str());
}

TEST(Properties, MissingFileThrows) {
  EXPECT_THROW(load_properties("/nonexistent/file.cfg"), std::runtime_error);
}

}  // namespace
}  // namespace nbtinoc::util
