#pragma once
// The files a honeypot saw in harvested shared-file lists: Table I's
// "distinct files" and "space used" columns, plus the names the manager
// exports as an anonymised catalog.
//
// Peers (and attackers) can send very large lists, so the catalogue is
// three flat arrays and never a heap node per file:
//   - (FileId, size) entries in first-sighting order, 20 bytes each;
//   - a u32 open-addressing index over the entries (linear probing, load
//     at most 1/2, slot value = entry index + 1 with 0 marking an empty
//     slot, so the all-zero FileId stays a valid key);
//   - every name in one contiguous buffer, addressed by end offsets.
// An insert allocates nothing beyond amortised vector growth.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace edhp::honeypot {

class ObservedCatalogue {
 public:
  struct Entry {
    FileId file;
    std::uint32_t size = 0;
  };

  /// Record one shared-list entry. The first sighting of `file` fixes its
  /// size and name; later sightings change nothing. Returns true when the
  /// file is new. Throws std::length_error past 2^32 - 1 files or 4 GiB of
  /// names.
  bool insert(const FileId& file, std::uint32_t size, std::string_view name);

  /// Distinct files seen.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Sum of the distinct files' sizes.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  /// Distinct files in first-sighting order.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return entries_;
  }
  /// Name of entries()[i], as first sighted; valid until the next insert.
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : name_ends_[i - 1];
    return std::string_view(names_.data() + begin, name_ends_[i] - begin);
  }

 private:
  /// Double the index (16 slots at first) and re-seat every entry.
  void grow();

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  std::string names_;
  std::vector<std::uint32_t> name_ends_;
  std::uint64_t bytes_ = 0;
};
static_assert(sizeof(ObservedCatalogue::Entry) == 20);

/// Fleet totals for Table I.
struct ObservedFiles {
  std::uint64_t distinct = 0;
  std::uint64_t bytes = 0;
};

/// Union of catalogues taken in order: a file counts once, with its size
/// in the first catalogue that holds it. Builds one temporary index over
/// the entries and copies none of them.
[[nodiscard]] ObservedFiles observed_union(
    std::span<const ObservedCatalogue* const> catalogues);

}  // namespace edhp::honeypot
