#pragma once
// Number format shared by the run and fleet configuration digests
// (config_digest, fleet_digest).

#include <initializer_list>
#include <string>

namespace nbtinoc::core {

/// Doubles in "%.17g", '/'-separated. It round-trips every double, so a
/// digest tells apart any two values a configuration can hold.
std::string digest_doubles(std::initializer_list<double> values);

}  // namespace nbtinoc::core
