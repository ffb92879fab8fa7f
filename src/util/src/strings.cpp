#include "btmf/util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "btmf/util/error.h"

namespace btmf::util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string format_double_exact(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw Error("format_double_exact: to_chars failed");
  return std::string(buf, ptr);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

double parse_double(std::string_view s, std::string_view context) {
  s = trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("cannot parse '" + std::string(s) + "' as a number (" +
                      std::string(context) + ")");
  }
  return value;
}

long long parse_int(std::string_view s, std::string_view context) {
  s = trim(s);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("cannot parse '" + std::string(s) + "' as an integer (" +
                      std::string(context) + ")");
  }
  return value;
}

std::uint64_t parse_uint64(std::string_view s, std::string_view context) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("cannot parse '" + std::string(s) +
                      "' as an unsigned 64-bit integer (" +
                      std::string(context) + ")");
  }
  return value;
}

}  // namespace btmf::util
