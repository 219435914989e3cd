#include "honeypot/journal_entries.hpp"

namespace edhp::honeypot::journal {

std::uint32_t checked_count(std::uint32_t n, std::size_t remaining,
                            std::size_t min_size) {
  if (n > remaining / min_size) {
    throw DecodeError("journal entry: count " + std::to_string(n) +
                      " exceeds the " + std::to_string(remaining) +
                      " payload bytes left");
  }
  return n;
}

}  // namespace edhp::honeypot::journal
