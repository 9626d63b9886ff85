#include "nbtinoc/util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace nbtinoc::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string to_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    if (i + 1 < parts.size()) out += sep;
  }
  return out;
}

namespace {

/// Throws unless strtoll/strtod consumed the whole of a non-empty `text`
/// and stayed in range.
void check_parsed(const std::string& text, const char* end, std::string_view what,
                  const char* kind) {
  const auto fail = [&](const std::string& why) {
    return std::invalid_argument(std::string(what) + ": '" + text + "' " + why);
  };
  if (end == text.c_str() || *end != '\0') throw fail(std::string("is not ") + kind);
  if (errno == ERANGE) throw fail("is out of range");
}

}  // namespace

long long parse_int(const std::string& text, std::string_view what) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  check_parsed(text, end, what, "an integer");
  return value;
}

double parse_double(const std::string& text, std::string_view what) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  check_parsed(text, end, what, "a number");
  return value;
}

}  // namespace nbtinoc::util
