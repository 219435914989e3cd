#pragma once
// Deterministic random-number generation for the simulator and analysis.
//
// Uses xoshiro256** seeded via SplitMix64. Every component that needs
// randomness takes an explicit Rng (or derives one via Rng::split), so a
// scenario run is reproducible bit-for-bit from a single seed regardless of
// thread count or evaluation order of unrelated components.

#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

namespace edhp {

/// xoshiro256** engine with distribution helpers used across the project.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Derive an independent child stream; deterministic in (parent state,
  /// stream id). The parent state is not advanced, so components can split
  /// stable sub-streams by id.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const;

  std::uint64_t operator()() { return next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<std::uint64_t>::max(); }

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);
  /// True with probability p (clamped to [0,1]).
  bool chance(double p);
  /// Exponential with given mean (> 0).
  double exponential(double mean);
  /// Poisson-distributed count with given mean (>= 0).
  std::uint64_t poisson(double mean);
  /// Standard normal via Box–Muller (no cached spare: deterministic stream).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Index drawn proportionally to non-negative weights (at least one > 0).
  std::size_t weighted(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices uniformly from [0, n). Requires k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t next();

  std::uint64_t s_[4];
};

/// Discrete Zipf(alpha) sampler over ranks {0, .., n-1} with P(rank k)
/// proportional to 1/(k+1)^alpha. Precomputes the CDF once (O(n) memory) and
/// samples in O(log n); suitable for catalogs of a few million files.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace edhp
