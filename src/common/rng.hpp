// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulation (graph generators, oblivious
// adversary schedules, the randomized Algorithm 2, the Section-2 K'-set
// sampling) draws from an explicitly seeded Rng so that every experiment is
// reproducible from its configuration alone.  The core generator is
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is both
// faster and statistically stronger than std::mt19937_64 while keeping the
// implementation self-contained.
//
// Rng is also the mechanism by which we model the *oblivious* adversary of
// Section 1.3: an oblivious adversary's schedule is a pure function of its
// own seed, never of algorithm state, which is exactly "committing to the
// sequence of topologies before the execution starts".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace dyngossip {

/// SplitMix64 step; used for seeding and as a cheap hash.  Inline: the
/// async plane's position hashes fold two steps per decision.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with convenience sampling helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> distributions, although the member helpers below are preferred
/// (their results are stable across standard library implementations).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed (SplitMix64-expanded).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next(); }

  /// Next raw 64 random bits.  Defined inline (below) with next_below: the
  /// shuffles and rejection samplers draw thousands of times per round.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound).  Requires bound > 0.  Unbiased
  /// (Lemire's nearly-divisionless rejection method).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Uniformly samples `count` distinct values from [0, universe).
  /// Requires count <= universe.  O(count) expected time for sparse draws,
  /// O(universe) when count is a large fraction of the universe.
  [[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(
      std::uint64_t universe, std::uint64_t count);

  /// Picks a uniformly random element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> v) noexcept {
    DG_CHECK(!v.empty());
    return v[static_cast<std::size_t>(next_below(v.size()))];
  }

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) noexcept {
    return pick(std::span<const T>(v));
  }

  /// Derives an independent child generator; use to give each subsystem its
  /// own stream so that adding draws in one place never perturbs another.
  [[nodiscard]] Rng split() noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

inline std::uint64_t Rng::next() noexcept {
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

inline std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  DG_CHECK(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace dyngossip
