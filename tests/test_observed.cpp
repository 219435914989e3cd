// The observed-file catalogue behind Table I's distinct files and space
// used: first-sighting semantics per honeypot, first-catalogue-wins union
// across the fleet, checked against a node-map reference model, and union
// duplicates past an entry page boundary.

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "honeypot/observed.hpp"

namespace edhp::honeypot {
namespace {

TEST(ObservedCatalogue, FirstSightingFixesSize) {
  ObservedCatalogue c;
  const FileId zero{};  // a valid key, not an empty-slot marker
  EXPECT_TRUE(c.insert(zero, 7));
  EXPECT_TRUE(c.insert(FileId::from_words(1, 2), 10));
  EXPECT_FALSE(c.insert(zero, 99));
  EXPECT_FALSE(c.insert(FileId::from_words(1, 2), 11));
  EXPECT_TRUE(c.insert(FileId::from_words(2, 1), 20));
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.bytes(), 7u + 10u + 20u);
  EXPECT_EQ(c.entry(0).file, zero);
  EXPECT_EQ(c.entry(0).size, 7u);
  EXPECT_EQ(c.entry(1).size, 10u);
  EXPECT_EQ(c.entry(2).file, FileId::from_words(2, 1));
}

TEST(ObservedCatalogue, UnionTakesSizeFromFirstCatalogue) {
  ObservedCatalogue a, b;
  b.insert(FileId::from_words(5, 5), 100);
  b.insert(FileId{}, 3);
  a.insert(FileId::from_words(5, 5), 1);
  const std::array<const ObservedCatalogue*, 2> fleet{&a, &b};
  const auto u = observed_union(fleet);
  EXPECT_EQ(u.distinct, 2u);
  EXPECT_EQ(u.bytes, 1u + 3u);
  EXPECT_EQ(observed_union({}).distinct, 0u);
}

// The union resolves an index slot through the catalogue bases to an entry
// on any entry page. Here the duplicates lie past the first entry page of
// a later catalogue (and past an empty catalogue, which shares its base
// with the next): in fleet order the earlier catalogue's size wins, and
// reversed, the entry past the page boundary is the one that wins.
TEST(ObservedCatalogue, UnionResolvesDuplicatesPastEntryPages) {
  constexpr std::size_t kPage = ObservedCatalogue::kPageEntries;
  ObservedCatalogue a, empty, b, c;
  const FileId ab = FileId::from_words(0xA, 0xB);
  const FileId bc = FileId::from_words(0xB, 0xC);
  a.insert(ab, 1);
  for (std::uint64_t i = 0; i < kPage + 5; ++i) {
    b.insert(FileId::from_words(i, 0xB0), 10);
  }
  b.insert(ab, 100);
  b.insert(bc, 20);
  ASSERT_GT(b.size(), kPage);
  c.insert(bc, 3000);
  c.insert(FileId::from_words(0xC, 0xC), 30);

  const std::uint64_t fillers = kPage + 5;
  const std::array<const ObservedCatalogue*, 4> fleet{&a, &empty, &b, &c};
  const auto u = observed_union(fleet);
  EXPECT_EQ(u.distinct, fillers + 3);
  EXPECT_EQ(u.bytes, 1 + 10 * fillers + 20 + 30);

  const std::array<const ObservedCatalogue*, 4> reversed{&c, &b, &empty, &a};
  const auto r = observed_union(reversed);
  EXPECT_EQ(r.distinct, fillers + 3);
  EXPECT_EQ(r.bytes, 3000 + 30 + 10 * fillers + 100);
}

// ~200k inserts into three catalogues, drawn from a pool of ids shaped to
// stress the index: random ids, ids sharing their first 8 bytes, ids
// sharing their last 8 bytes, ids with equal halves, and the zero id. Every
// id recurs within and across catalogues with a fresh size each time, so
// only the first sighting may stick.
TEST(ObservedCatalogue, MatchesNodeMapReference) {
  Rng rng(20081001);
  std::vector<FileId> pool;
  pool.push_back(FileId{});
  constexpr std::uint64_t kShared = 0x0123456789abcdefull;
  for (std::uint64_t i = 1; pool.size() < 60000; ++i) {
    switch (i % 4) {
      case 0: pool.push_back(FileId::from_words(rng(), rng())); break;
      case 1: pool.push_back(FileId::from_words(kShared, rng())); break;
      case 2: pool.push_back(FileId::from_words(rng(), kShared)); break;
      default: pool.push_back(FileId::from_words(i, i)); break;
    }
  }

  struct Reference {
    std::unordered_map<FileId, std::uint32_t> sizes;
    std::vector<FileId> order;
    std::uint64_t bytes = 0;
  };
  std::array<ObservedCatalogue, 3> catalogues;
  std::array<Reference, 3> reference;
  for (std::size_t n = 0; n < 200000; ++n) {
    const std::size_t c = rng.below(3);
    // The zero id recurs often enough to reach every catalogue.
    const FileId id = n % 997 == 0 ? FileId{} : pool[rng.below(pool.size())];
    const auto size = static_cast<std::uint32_t>(rng());
    const bool fresh = catalogues[c].insert(id, size);
    auto& ref = reference[c];
    ASSERT_EQ(fresh, ref.sizes.try_emplace(id, size).second) << "insert " << n;
    if (fresh) {
      ref.order.push_back(id);
      ref.bytes += size;
    }
  }

  std::unordered_map<FileId, std::uint32_t> fleet;
  std::uint64_t fleet_bytes = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& cat = catalogues[c];
    const auto& ref = reference[c];
    // The 16-slot index doubled at least seven times, and the zero id
    // reached every catalogue.
    ASSERT_GT(cat.size(), 1024u);
    EXPECT_TRUE(ref.sizes.contains(FileId{}));
    ASSERT_EQ(cat.size(), ref.order.size());
    EXPECT_EQ(cat.bytes(), ref.bytes);
    for (std::size_t i = 0; i < cat.size(); ++i) {
      ASSERT_EQ(cat.entry(i).file, ref.order[i]) << "catalogue " << c;
      ASSERT_EQ(cat.entry(i).size, ref.sizes.at(ref.order[i]));
    }
    for (const auto& id : ref.order) {
      if (fleet.try_emplace(id, ref.sizes.at(id)).second) {
        fleet_bytes += ref.sizes.at(id);
      }
    }
  }
  const std::array<const ObservedCatalogue*, 3> order{
      &catalogues[0], &catalogues[1], &catalogues[2]};
  const auto u = observed_union(order);
  EXPECT_EQ(u.distinct, fleet.size());
  EXPECT_EQ(u.bytes, fleet_bytes);
  EXPECT_LT(u.distinct, 200000u);  // heavy repetition across catalogues
}

}  // namespace
}  // namespace edhp::honeypot
