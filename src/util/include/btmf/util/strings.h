// Small string utilities used by the CLI parser and table writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace btmf::util {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `precision` significant digits, trimming the
/// noise a raw std::to_string would produce ("0.500000").
std::string format_double(double v, int precision = 6);

/// Shortest decimal string that parses back to exactly `v` (std::to_chars
/// round-trip guarantee). Used wherever doubles must survive a
/// serialise/parse cycle bit-identically — sweep cache files, config
/// fingerprints. Non-finite values render as "inf"/"-inf"/"nan".
std::string format_double_exact(double v);

/// Lower-cases ASCII characters in place and returns the result.
std::string to_lower(std::string_view s);

/// Parses a double, throwing btmf::ConfigError with `context` on failure.
double parse_double(std::string_view s, std::string_view context);

/// Parses a non-negative integer, throwing btmf::ConfigError on failure.
long long parse_int(std::string_view s, std::string_view context);

/// Parses an unsigned 64-bit integer (the full range of an RNG seed),
/// throwing btmf::ConfigError on a sign, junk or a value above 2^64 - 1.
std::uint64_t parse_uint64(std::string_view s, std::string_view context);

}  // namespace btmf::util
