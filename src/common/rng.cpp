#include "common/rng.hpp"

#include <unordered_set>

namespace dyngossip {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state; SplitMix64 never yields
  // four consecutive zeros, but keep the guard for belt and braces.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ull;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  DG_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = (span == 0) ? next() : next_below(span);
  return lo + static_cast<std::int64_t>(draw);
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits; uniform over [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t universe,
                                                           std::uint64_t count) {
  DG_CHECK(count <= universe);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  if (count == 0) return out;
  if (count * 3 >= universe) {
    // Dense draw: partial Fisher-Yates over the whole universe.
    std::vector<std::uint64_t> all(static_cast<std::size_t>(universe));
    for (std::uint64_t i = 0; i < universe; ++i) all[static_cast<std::size_t>(i)] = i;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + next_below(universe - i);
      std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(j)]);
      out.push_back(all[static_cast<std::size_t>(i)]);
    }
    return out;
  }
  // Sparse draw: rejection sampling into a hash set.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(count) * 2);
  while (out.size() < count) {
    const std::uint64_t x = next_below(universe);
    if (seen.insert(x).second) out.push_back(x);
  }
  return out;
}

Rng Rng::split() noexcept { return Rng(next() ^ 0xd1b54a32d192ed03ull); }

}  // namespace dyngossip
