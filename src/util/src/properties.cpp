#include "nbtinoc/util/properties.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nbtinoc/util/strings.hpp"

namespace nbtinoc::util {

Properties parse_properties(const std::string& text) {
  Properties props;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error("properties: line " + std::to_string(line_no) +
                               " is not 'key = value'");
    const std::string key{trim(trimmed.substr(0, eq))};
    const std::string value{trim(trimmed.substr(eq + 1))};
    if (key.empty())
      throw std::runtime_error("properties: empty key on line " + std::to_string(line_no));
    props[key] = value;
  }
  return props;
}

Properties load_properties(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_properties: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_properties(buffer.str());
}

std::string get_or(const Properties& props, const std::string& key, const std::string& fallback) {
  const auto it = props.find(key);
  return it == props.end() ? fallback : it->second;
}

long long get_int_or(const Properties& props, const std::string& key, long long fallback) {
  const auto it = props.find(key);
  return it == props.end() ? fallback : parse_int(it->second, key);
}

double get_double_or(const Properties& props, const std::string& key, double fallback) {
  const auto it = props.find(key);
  return it == props.end() ? fallback : parse_double(it->second, key);
}

bool get_bool_or(const Properties& props, const std::string& key, bool fallback) {
  const auto it = props.find(key);
  if (it == props.end()) return fallback;
  const std::string v = to_lower(it->second);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace nbtinoc::util
