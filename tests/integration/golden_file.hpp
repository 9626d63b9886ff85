#pragma once
// Golden-file comparison shared by the golden suites: a rendered text is
// compared with its checked-in file line by line, or under
// NBTINOC_UPDATE_GOLDEN=1 written over it (and the test skipped).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace nbtinoc::test {

inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Lower-case hex of raw bytes (snapshot goldens are kept as text, so a
/// drift shows as a line diff).
inline std::string hex_of(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (const char ch : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(ch));
    out += buf;
  }
  return out;
}

/// Compares `actual` with the golden file at `path` line by line, or
/// rewrites the file (and skips) under NBTINOC_UPDATE_GOLDEN.
inline void expect_matches_golden(const char* path, const std::string& actual) {
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

}  // namespace nbtinoc::test
