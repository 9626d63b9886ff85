#pragma once
// Tiny command-line flag parser shared by the benches and examples.
// Supports "--name value", "--name=value" and boolean "--name" forms.

#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nbtinoc::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if "--name" appeared at all (with or without a value).
  bool has(const std::string& name) const;

  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  /// Numbers go through parse_int/parse_double (strings.hpp): a malformed
  /// or missing value of a given flag throws std::invalid_argument.
  long long get_int_or(const std::string& name, long long fallback) const;
  /// get_int_or narrowed to T: a value T cannot hold (a negative count for
  /// an unsigned type, a width past int) throws std::invalid_argument
  /// naming the flag and T's range instead of wrapping.
  template <typename T>
  T get_int_as(const std::string& name, T fallback) const {
    const long long v = get_int_or(name, static_cast<long long>(fallback));
    if (!std::in_range<T>(v))
      throw std::invalid_argument("--" + name + ": " + std::to_string(v) + " is outside [" +
                                  std::to_string(std::numeric_limits<T>::min()) + ", " +
                                  std::to_string(std::numeric_limits<T>::max()) + "]");
    return static_cast<T>(v);
  }
  double get_double_or(const std::string& name, double fallback) const;
  bool get_bool_or(const std::string& name, bool fallback) const;

  /// Non-flag arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace nbtinoc::util
