// Small text-formatting helpers for names, benchmark tables and logs.
#pragma once

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

namespace srm::util {

/// Concatenate @p parts (strings, C strings, chars) left to right. Names
/// built as `"lit" + std::to_string(n)` prepend into the temporary, which
/// GCC 12 at -O3 misreports as an overlapping memcpy (-Wrestrict); appending
/// into one buffer does not.
template <class... Ts>
std::string cat(const Ts&... parts) {
  std::string s;
  ((s += parts), ...);
  return s;
}

/// Render a byte count like the paper's axes: "8", "1K", "64K", "8M".
inline std::string human_bytes(std::uint64_t n) {
  auto whole = [](std::uint64_t v, std::uint64_t unit) { return v % unit == 0; };
  std::ostringstream os;
  if (n >= (1ull << 20) && whole(n, 1ull << 20)) {
    os << (n >> 20) << "M";
  } else if (n >= (1ull << 10) && whole(n, 1ull << 10)) {
    os << (n >> 10) << "K";
  } else {
    os << n;
  }
  return os.str();
}

/// Fixed-point rendering of microseconds with sensible precision.
inline std::string fmt_us(double us) {
  std::ostringstream os;
  if (us < 100.0) {
    os << std::fixed << std::setprecision(2) << us;
  } else if (us < 10000.0) {
    os << std::fixed << std::setprecision(1) << us;
  } else {
    os << std::fixed << std::setprecision(0) << us;
  }
  return os.str();
}

}  // namespace srm::util
