#pragma once
// Tiny "key = value" properties format for scenario files:
//   # comment
//   mesh_width = 4
//   injection_rate = 0.2
// Keys and values are trimmed; later duplicates win; '#' starts a comment
// anywhere on a line.

#include <map>
#include <string>

namespace nbtinoc::util {

using Properties = std::map<std::string, std::string>;

/// Parses properties from text. Throws std::runtime_error on a line that is
/// neither empty, a comment, nor key=value.
Properties parse_properties(const std::string& text);

/// Loads a properties file. Throws std::runtime_error if unreadable.
Properties load_properties(const std::string& path);

/// Typed getters with defaults. Numbers go through parse_int/parse_double
/// (strings.hpp): a malformed value throws std::invalid_argument naming the
/// key.
std::string get_or(const Properties& props, const std::string& key, const std::string& fallback);
long long get_int_or(const Properties& props, const std::string& key, long long fallback);
double get_double_or(const Properties& props, const std::string& key, double fallback);
bool get_bool_or(const Properties& props, const std::string& key, bool fallback);

}  // namespace nbtinoc::util
