// Strict numeric command-line values.
//
// parse_flag<T>(prog, flag, text, lo, hi) accepts `text` only when the
// whole string parses as a T (std::from_chars: no sign on unsigned
// types, no leading blanks, no trailing garbage) and the value lies in
// [lo, hi]. Anything else prints
//   <prog>: bad value for <flag>: '<text>' (expected <lo>..<hi>)
// to stderr and exits with status 2, the usage-error convention of the
// acornd tools — so `--workers abc` or `--port 70000` fail loudly
// instead of silently becoming 0 or wrapping.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace acorn::util {

inline std::string flag_bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
template <class T>
std::string flag_bound(T v) {
  return std::to_string(v);
}

template <class T>
T parse_flag(const char* prog, const char* flag, const char* text, T lo,
             T hi) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // Written as !(in range) so a NaN double is rejected too.
  if (ec != std::errc() || ptr != end || ptr == text ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "%s: bad value for %s: '%s' (expected %s..%s)\n",
                 prog, flag, text, flag_bound(lo).c_str(),
                 flag_bound(hi).c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace acorn::util
