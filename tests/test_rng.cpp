// Statistical and determinism tests for the RNG and samplers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"

namespace edhp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  Rng root(7);
  Rng c1 = root.split(1);
  Rng c2 = root.split(2);
  Rng c1_again = root.split(1);
  EXPECT_EQ(c1(), c1_again());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() == c2()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowIsUnbiasedAcrossRange) {
  Rng r(11);
  constexpr std::uint64_t k = 10;
  std::array<int, k> counts{};
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[r.below(k)];
  }
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / static_cast<double>(k), n * 0.02);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng r(1);
  EXPECT_THROW(r.below(0), std::invalid_argument);
}

TEST(Rng, BetweenCoversInclusiveBounds) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(13);
  double sum = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng r(17);
  for (double mean : {0.5, 4.0, 80.0}) {
    double sum = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Rng r(19);
  double sum = 0, sq = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng r(23);
  const double w[3] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[r.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], n / 4.0, n * 0.02);
  EXPECT_NEAR(counts[2], 3 * n / 4.0, n * 0.02);
}

TEST(Rng, WeightedRejectsAllZero) {
  Rng r(1);
  const double w[2] = {0.0, 0.0};
  EXPECT_THROW(r.weighted(w), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(29);
  for (std::size_t n : {10u, 100u, 1000u}) {
    for (std::size_t k : {0u, 1u, 5u, 10u}) {
      auto s = r.sample_indices(n, k);
      ASSERT_EQ(s.size(), k);
      std::set<std::size_t> uniq(s.begin(), s.end());
      EXPECT_EQ(uniq.size(), k);
      for (auto v : s) EXPECT_LT(v, n);
    }
  }
  EXPECT_THROW(r.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(ZipfSampler, PmfMatchesEmpiricalFrequencies) {
  Rng r(37);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  // Rank 0 should dominate and match its pmf.
  EXPECT_NEAR(counts[0] / static_cast<double>(n), z.pmf(0), 0.01);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
  double total_pmf = 0;
  for (std::size_t k = 0; k < 100; ++k) total_pmf += z.pmf(k);
  EXPECT_NEAR(total_pmf, 1.0, 1e-9);
}

TEST(ZipfSampler, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  ZipfSampler z(5, 0.8);
  EXPECT_THROW((void)z.pmf(5), std::out_of_range);
}

}  // namespace
}  // namespace edhp
