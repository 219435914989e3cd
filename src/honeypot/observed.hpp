#pragma once
// The files a honeypot saw in harvested shared-file lists: Table I's
// "distinct files" and "space used" columns.
//
// Peers (and attackers) can send very large lists, so the catalogue keeps
// no heap node per file. It stores fixed-size pages that are added as it
// grows and never copied, moved or freed before it dies:
//   - entry pages of kPageEntries (FileId, size) entries in first-sighting
//     order, 20 bytes each;
//   - a u32 open-addressing index over the entries (linear probing, load
//     at most 1/2, slot value = entry index + 1 with 0 marking an empty
//     slot, so the all-zero FileId stays a valid key). Only the index
//     doubles and rehashes.
// Capacity thus tracks content: the slack is the unfilled rest of the last
// entry page.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace edhp::honeypot {

class ObservedCatalogue {
 public:
  struct Entry {
    FileId file;
    std::uint32_t size = 0;
  };

  /// Entries per entry page.
  static constexpr std::size_t kPageEntries = 4096;

  /// Record one shared-list entry. The first sighting of `file` fixes its
  /// size; later sightings change nothing. Returns true when the file is
  /// new. Throws std::length_error past 2^32 - 1 files.
  bool insert(const FileId& file, std::uint32_t size);

  /// Distinct files seen.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Sum of the distinct files' sizes.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  /// Distinct file i (i < size()), in first-sighting order.
  [[nodiscard]] const Entry& entry(std::size_t i) const noexcept {
    return pages_[i / kPageEntries][i % kPageEntries];
  }

 private:
  /// Double the index (16 slots at first) and re-seat every entry.
  void grow();

  /// Entry pages; each is reserved to kPageEntries once and never regrown.
  std::vector<std::vector<Entry>> pages_;
  std::vector<std::uint32_t> index_;
  std::size_t size_ = 0;
  std::uint64_t bytes_ = 0;
};
static_assert(sizeof(ObservedCatalogue::Entry) == 20);

/// Fleet totals for Table I.
struct ObservedFiles {
  std::uint64_t distinct = 0;
  std::uint64_t bytes = 0;
};

/// Union of catalogues taken in order: a file counts once, with its size
/// in the first catalogue that holds it. Builds one temporary index of
/// 4-byte slots over the entries and copies none of them. Throws
/// std::length_error past 2^32 - 1 entries in all.
[[nodiscard]] ObservedFiles observed_union(
    std::span<const ObservedCatalogue* const> catalogues);

}  // namespace edhp::honeypot
