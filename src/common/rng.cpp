#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace edhp {
namespace {

/// A GCC/Clang extension type; `__extension__` marks its use as deliberate
/// under -Wpedantic.
__extension__ using u128 = unsigned __int128;

inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = splitmix64(sm);
  }
  // xoshiro's all-zero state is a fixed point; splitmix64 output makes this
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Mix the full parent state with the stream id so distinct ids yield
  // independent streams even for adjacent ids.
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
  std::uint64_t x = mix ^ (stream_id * 0xD1342543DE82EF95ull + 0x2545F4914F6CDD1Dull);
  return Rng(splitmix64(x));
}

double Rng::uniform() {
  // 53-bit mantissa, uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) {
    throw std::invalid_argument("Rng::below(0)");
  }
  // Lemire's nearly-divisionless bounded sampling with rejection.
  while (true) {
    const std::uint64_t x = next();
    const u128 m = static_cast<u128>(x) * n;
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= n) {
      return static_cast<std::uint64_t>(m >> 64);
    }
    const std::uint64_t threshold = (0 - n) % n;
    if (low >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) {
    throw std::invalid_argument("Rng::between: lo > hi");
  }
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == std::numeric_limits<std::uint64_t>::max()) {
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(below(span + 1));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) {
    throw std::invalid_argument("Rng::exponential: mean must be > 0");
  }
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) {
    throw std::invalid_argument("Rng::poisson: mean must be >= 0");
  }
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means; the
  // peer-arrival model only uses per-interval means where this is accurate.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 == 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("Rng::weighted: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::weighted: all weights zero");
  }
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: fall back to last
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("Rng::sample_indices: k > n");
  }
  if (k * 3 >= n) {
    // Dense case: partial Fisher–Yates over the full index range.
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + static_cast<std::size_t>(below(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  // Sparse case: rejection into a hash set.
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    std::size_t v = static_cast<std::size_t>(below(n));
    if (seen.insert(v).second) {
      out.push_back(v);
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  if (n == 0) {
    throw std::invalid_argument("ZipfSampler: n must be > 0");
  }
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = acc;
  }
  for (auto& c : cdf_) {
    c /= acc;
  }
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) {
    throw std::out_of_range("ZipfSampler::pmf: rank out of range");
  }
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace edhp
