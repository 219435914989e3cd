#include "honeypot/observed.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace edhp::honeypot {
namespace {

/// Entry numbers, per catalogue and fleet-wide, are stored as u32.
constexpr std::size_t kLimit = std::numeric_limits<std::uint32_t>::max();

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

bool ObservedCatalogue::insert(const FileId& file, std::uint32_t size) {
  if (2 * (size_ + 1) > index_.size()) grow();
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = slot_hash(file) & mask;
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    if (entry(index_[slot] - 1).file == file) return false;
  }
  if (size_ >= kLimit) throw std::length_error("observed catalogue full");
  if (pages_.empty() || pages_.back().size() == kPageEntries) {
    pages_.emplace_back().reserve(kPageEntries);
  }
  pages_.back().push_back(Entry{file, size});
  index_[slot] = static_cast<std::uint32_t>(++size_);
  bytes_ += size;
  return true;
}

void ObservedCatalogue::grow() {
  index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t slot = slot_hash(entry(i).file) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

ObservedFiles observed_union(
    std::span<const ObservedCatalogue* const> catalogues) {
  // Each entry has a fleet-wide number: its catalogue's base plus its index
  // there.
  std::vector<std::size_t> bases;
  bases.reserve(catalogues.size());
  std::size_t total = 0;
  for (const auto* c : catalogues) {
    bases.push_back(total);
    total += c->size();
  }
  if (total > kLimit) throw std::length_error("observed union too large");
  const auto file_of = [&](std::size_t n) -> const FileId& {
    // The last catalogue whose base is at most n holds it: an empty
    // catalogue shares its base with the next one.
    const auto k = static_cast<std::size_t>(
        std::upper_bound(bases.begin(), bases.end(), n) - bases.begin() - 1);
    return catalogues[k]->entry(n - bases[k]).file;
  };
  // Sized once for every entry, so the load stays at most 1/2 without
  // growing; a slot holds the winning entry's number + 1 (0 = empty).
  std::vector<std::uint32_t> index(std::bit_ceil(2 * total));
  const std::size_t mask = index.size() - 1;
  ObservedFiles out;
  for (std::size_t k = 0; k < catalogues.size(); ++k) {
    const auto& c = *catalogues[k];
    for (std::size_t i = 0; i < c.size(); ++i) {
      const auto& e = c.entry(i);
      std::size_t slot = slot_hash(e.file) & mask;
      while (index[slot] != 0 && file_of(index[slot] - 1) != e.file) {
        slot = (slot + 1) & mask;
      }
      if (index[slot] == 0) {
        index[slot] = static_cast<std::uint32_t>(bases[k] + i + 1);
        ++out.distinct;
        out.bytes += e.size;
      }
    }
  }
  return out;
}

}  // namespace edhp::honeypot
