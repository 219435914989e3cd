#pragma once
// Strict number parsing for command lines and committed text files: the
// whole text must be one number, so "2x", "" and "0.02junk" are rejected
// instead of silently truncated; an unsigned type takes no sign, so "-1"
// cannot wrap to 2^64 - 1; and a floating type takes only finite values, so
// "nan" and "inf" (which std::from_chars accepts) cannot reach a loop that
// runs until a time passes a horizon.

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace edhp {

/// `text` as a complete number of type T, or nullopt.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace edhp
