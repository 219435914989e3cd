#pragma once
// Strict number parsing for command lines and committed text files: the
// whole text must be one number, so "2x", "" and "0.02junk" are rejected
// instead of silently truncated, and an unsigned type takes no sign, so
// "-1" cannot wrap to 2^64 - 1.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace edhp {

/// `text` as a complete number of type T, or nullopt.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace edhp
