#include "honeypot/observed.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace edhp::honeypot {
namespace {

/// Slot hash over both 8-byte halves of the id. Each half is multiplied
/// before they meet and the result is folded, so ids that share either
/// half (or whose halves are equal) still land in different slots.
std::size_t slot_hash(const FileId& id) noexcept {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::memcpy(&lo, id.bytes().data(), sizeof lo);
  std::memcpy(&hi, id.bytes().data() + sizeof lo, sizeof hi);
  std::uint64_t h = lo * 0x9E3779B97F4A7C15ull ^
                    std::rotl(hi * 0xC2B2AE3D27D4EB4Full, 31);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

bool ObservedCatalogue::insert(const FileId& file, std::uint32_t size,
                               std::string_view name) {
  if (2 * (entries_.size() + 1) > index_.size()) grow();
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = slot_hash(file) & mask;
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    if (entries_[index_[slot] - 1].file == file) return false;
  }
  // Entry numbers and name offsets are stored as u32.
  constexpr std::size_t kLimit = std::numeric_limits<std::uint32_t>::max();
  if (entries_.size() >= kLimit || names_.size() + name.size() > kLimit) {
    throw std::length_error("observed catalogue full");
  }
  entries_.push_back(Entry{file, size});
  index_[slot] = static_cast<std::uint32_t>(entries_.size());
  names_.append(name);
  name_ends_.push_back(static_cast<std::uint32_t>(names_.size()));
  bytes_ += size;
  return true;
}

void ObservedCatalogue::grow() {
  index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t slot = slot_hash(entries_[i].file) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

ObservedFiles observed_union(
    std::span<const ObservedCatalogue* const> catalogues) {
  std::size_t total = 0;
  for (const auto* c : catalogues) total += c->size();
  // Sized once for every entry, so the load stays at most 1/2 without
  // growing; a slot points at the winning entry (null = empty).
  std::vector<const ObservedCatalogue::Entry*> index(std::bit_ceil(2 * total));
  const std::size_t mask = index.size() - 1;
  ObservedFiles out;
  for (const auto* c : catalogues) {
    for (const auto& e : c->entries()) {
      std::size_t slot = slot_hash(e.file) & mask;
      while (index[slot] != nullptr && index[slot]->file != e.file) {
        slot = (slot + 1) & mask;
      }
      if (index[slot] == nullptr) {
        index[slot] = &e;
        ++out.distinct;
        out.bytes += e.size;
      }
    }
  }
  return out;
}

}  // namespace edhp::honeypot
