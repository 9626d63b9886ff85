#pragma once
// Small string helpers (no locale surprises, ASCII-only semantics).

#include <string>
#include <string_view>
#include <vector>

namespace nbtinoc::util {

std::vector<std::string> split(std::string_view text, char sep);
std::string_view trim(std::string_view text);
std::string to_lower(std::string_view text);
bool starts_with(std::string_view text, std::string_view prefix);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// The one number parser of every text knob (scenario files, CLI flags):
/// the whole of `text` must be one base-10 integer (parse_int) or one
/// strtod number (parse_double) that fits its type. Empty text, trailing
/// characters and overflow throw std::invalid_argument naming `what` (the
/// key or flag) and the text. Range and finiteness are the validators'
/// business, so "nan" and "-5" parse.
long long parse_int(const std::string& text, std::string_view what);
double parse_double(const std::string& text, std::string_view what);

}  // namespace nbtinoc::util
