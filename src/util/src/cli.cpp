#include "nbtinoc/util/cli.hpp"

#include "nbtinoc/util/strings.hpp"

namespace nbtinoc::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      flags_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag or missing.
    if (i + 1 < argc) {
      std::string next = argv[i + 1];
      if (next.rfind("--", 0) != 0) {
        flags_[name] = next;
        ++i;
        continue;
      }
    }
    flags_[name] = "";
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) != 0; }

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name, const std::string& fallback) const {
  const auto v = get(name);
  return v ? *v : fallback;
}

long long CliArgs::get_int_or(const std::string& name, long long fallback) const {
  const auto v = get(name);
  return v ? parse_int(*v, "--" + name) : fallback;
}

double CliArgs::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  return v ? parse_double(*v, "--" + name) : fallback;
}

bool CliArgs::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty()) return true;  // bare --flag
  return *v == "1" || *v == "true" || *v == "yes" || *v == "on";
}

}  // namespace nbtinoc::util
