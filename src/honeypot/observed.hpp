#pragma once
// The files a honeypot saw in harvested shared-file lists: Table I's
// "distinct files" and "space used" columns, plus the names the manager
// exports as an anonymised catalog.
//
// Peers (and attackers) can send very large lists, so the catalogue keeps
// no heap node per file. It stores fixed-size pages that are added as it
// grows and never copied, moved or freed before it dies:
//   - entry pages of kPageEntries (FileId, size) entries in first-sighting
//     order, 20 bytes each, with each name's 4-byte end offset;
//   - name pages of kNamePageBytes bytes. A name that does not fit in what
//     is left of the current page starts the next one, and a name longer
//     than a page gets a page of its own length;
//   - a u32 open-addressing index over the entries (linear probing, load
//     at most 1/2, slot value = entry index + 1 with 0 marking an empty
//     slot, so the all-zero FileId stays a valid key). Only the index
//     doubles and rehashes.
// Capacity thus tracks content: the slack is the unfilled rest of the last
// pages and the page tails a name did not fit in.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

  /// Entries per entry page.
  static constexpr std::size_t kPageEntries = 4096;
  /// Bytes per name page.
  static constexpr std::size_t kNamePageBytes = 64 * 1024;

  /// Record one shared-list entry. The first sighting of `file` fixes its
  /// size and name; later sightings change nothing. Returns true when the
  /// file is new. Throws std::length_error past 2^32 - 1 files or 4 GiB of
  /// name pages.
  bool insert(const FileId& file, std::uint32_t size, std::string_view name);

  /// Distinct files seen.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Sum of the distinct files' sizes.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  /// Distinct file i (i < size()), in first-sighting order.
  [[nodiscard]] const Entry& entry(std::size_t i) const noexcept {
    return pages_[i / kPageEntries].entries[i % kPageEntries];
  }
  /// Name of entry(i), as first sighted; valid for the catalogue's
  /// lifetime.
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept;

 private:
  /// One entry page; both vectors are reserved to kPageEntries once and
  /// never regrown.
  struct Page {
    std::vector<Entry> entries;
    std::vector<std::uint32_t> name_ends;
  };

  /// End offset of entry(i)'s name in the name pages, which are numbered
  /// as one space of kNamePageBytes per page.
  [[nodiscard]] std::size_t name_end(std::size_t i) const noexcept {
    return pages_[i / kPageEntries].name_ends[i % kPageEntries];
  }
  /// Double the index (16 slots at first) and re-seat every entry.
  void grow();
  /// Copy `name` into the name pages and return its end offset.
  std::uint32_t store_name(std::string_view name);

  std::vector<Page> pages_;
  std::vector<std::uint32_t> index_;
  /// Name pages by number; a name longer than a page owns the first of the
  /// numbers it spans, and the rest hold null.
  std::vector<std::unique_ptr<char[]>> name_pages_;
  std::size_t name_cursor_ = 0;  ///< end offset of the last name stored
  std::size_t name_room_ = 0;    ///< bytes left after it in its page
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
