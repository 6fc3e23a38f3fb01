// Seeded, deterministic pseudo-random number generation.
//
// Everything stochastic in h2push (site generation, network jitter, compute
// jitter, the adoption model) draws from an explicitly seeded Rng so that a
// given seed reproduces identical results on every platform. We implement
// xoshiro256** seeded via SplitMix64 rather than using <random> engines,
// because libstdc++/libc++ distributions are not guaranteed to produce
// identical streams across implementations.
#pragma once

#include <cstdint>
#include <cmath>
#include <string_view>

namespace h2push::util {

/// SplitMix64 step; used to expand a single 64-bit seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic 64-bit hash of a string (FNV-1a); used to derive
/// per-component seeds from a master seed plus a label.
constexpr std::uint64_t hash64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** 1.0 — public-domain algorithm by Blackman & Vigna.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept { reseed(seed); }

  /// Derive a child generator whose stream is independent of (but fully
  /// determined by) this seed and a label, e.g. Rng(seed).fork("tcp-jitter").
  Rng fork(std::string_view label) const noexcept {
    return Rng(seed_ ^ (hash64(label) | 1ULL));
  }

  void reseed(std::uint64_t seed) noexcept {
    seed_ = seed;
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() noexcept {
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

  /// Uniform in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal() noexcept {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  double normal(double mean, double sigma) noexcept {
    return mean + sigma * normal();
  }

  /// Log-normal with given *underlying* mu/sigma.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with given mean.
  double exponential(double mean) noexcept {
    double u = next_double();
    if (u < 1e-300) u = 1e-300;
    return -mean * std::log(u);
  }

  /// Pareto (power-law) with scale xm and shape alpha; heavy-tailed sizes.
  double pareto(double xm, double alpha) noexcept {
    double u = next_double();
    if (u < 1e-300) u = 1e-300;
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Pick a uniformly random element index; requires non-empty size.
  std::size_t index(std::size_t size) noexcept {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;
  std::uint64_t s_[4] = {};
};

}  // namespace h2push::util
