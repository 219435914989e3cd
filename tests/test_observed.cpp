// The observed-file catalogue behind Table I's distinct files and space
// used: first-sighting semantics per honeypot, first-catalogue-wins union
// across the fleet, checked against a node-map reference model.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "honeypot/observed.hpp"

namespace edhp::honeypot {
namespace {

TEST(ObservedCatalogue, FirstSightingFixesSizeAndName) {
  ObservedCatalogue c;
  const FileId zero{};  // a valid key, not an empty-slot marker
  EXPECT_TRUE(c.insert(zero, 7, "zero.avi"));
  EXPECT_TRUE(c.insert(FileId::from_words(1, 2), 10, "a.mp3"));
  EXPECT_FALSE(c.insert(zero, 99, "renamed.avi"));
  EXPECT_FALSE(c.insert(FileId::from_words(1, 2), 11, ""));
  EXPECT_TRUE(c.insert(FileId::from_words(2, 1), 20, ""));
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.bytes(), 7u + 10u + 20u);
  EXPECT_EQ(c.entries()[0].file, zero);
  EXPECT_EQ(c.entries()[0].size, 7u);
  EXPECT_EQ(c.name(0), "zero.avi");
  EXPECT_EQ(c.name(1), "a.mp3");
  EXPECT_EQ(c.name(2), "");
}

TEST(ObservedCatalogue, UnionTakesSizeFromFirstCatalogue) {
  ObservedCatalogue a, b;
  b.insert(FileId::from_words(5, 5), 100, "x");
  b.insert(FileId{}, 3, "z");
  a.insert(FileId::from_words(5, 5), 1, "x");
  const std::array<const ObservedCatalogue*, 2> fleet{&a, &b};
  const auto u = observed_union(fleet);
  EXPECT_EQ(u.distinct, 2u);
  EXPECT_EQ(u.bytes, 1u + 3u);
  EXPECT_EQ(observed_union({}).distinct, 0u);
}

// ~200k inserts into three catalogues, drawn from a pool of ids shaped to
// stress the index: random ids, ids sharing their first 8 bytes, ids
// sharing their last 8 bytes, ids with equal halves, and the zero id. Every
// id recurs within and across catalogues with a fresh size and name each
// time, so only the first sighting may stick.
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
    std::vector<std::string> names;
    std::uint64_t bytes = 0;
  };
  std::array<ObservedCatalogue, 3> catalogues;
  std::array<Reference, 3> reference;
  for (std::size_t n = 0; n < 200000; ++n) {
    const std::size_t c = rng.below(3);
    // The zero id recurs often enough to reach every catalogue.
    const FileId id = n % 997 == 0 ? FileId{} : pool[rng.below(pool.size())];
    const auto size = static_cast<std::uint32_t>(rng());
    const std::string name = std::to_string(n);
    const bool fresh = catalogues[c].insert(id, size, name);
    auto& ref = reference[c];
    ASSERT_EQ(fresh, ref.sizes.try_emplace(id, size).second) << "insert " << n;
    if (fresh) {
      ref.order.push_back(id);
      ref.names.push_back(name);
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
      ASSERT_EQ(cat.entries()[i].file, ref.order[i]) << "catalogue " << c;
      ASSERT_EQ(cat.entries()[i].size, ref.sizes.at(ref.order[i]));
      ASSERT_EQ(cat.name(i), ref.names[i]);
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
