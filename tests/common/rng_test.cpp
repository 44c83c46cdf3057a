// Tests for the deterministic RNG substrate.
#include "common/rng.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitMix64IsDeterministic) {
  std::uint64_t s1 = 7, s2 = 7;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expect, 0.05 * expect);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all seven values hit
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20'000, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliEmpiricalRate) {
  Rng rng(9);
  int hits = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(10);
  std::vector<int> v{1, 2, 2, 3, 4, 5, 5, 5};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(11);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  const std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability 1/50! of spurious failure
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(12);
  for (std::uint64_t universe : {10ull, 100ull, 1000ull}) {
    for (std::uint64_t count : {std::uint64_t{0}, std::uint64_t{1}, universe / 2,
                                universe}) {
      const auto sample = rng.sample_without_replacement(universe, count);
      EXPECT_EQ(sample.size(), count);
      std::set<std::uint64_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), count);
      for (const auto x : sample) EXPECT_LT(x, universe);
    }
  }
}

TEST(Rng, SampleFullUniverseIsPermutation) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(64, 64);
  std::set<std::uint64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 64u);
  EXPECT_EQ(*uniq.begin(), 0u);
  EXPECT_EQ(*uniq.rbegin(), 63u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(14);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (c1.next() == c2.next());
  EXPECT_LT(equal, 5);
}

// Literal draws pin the stream itself: every schedule, graph generator and
// randomized protocol is a function of these values, so a change to the
// generator's arithmetic must show up here rather than as drifted payloads.
TEST(RngGolden, NextIsPinned) {
  Rng rng(42);
  for (const std::uint64_t want :
       {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
        0xecb8ad4703b360a1ull}) {
    EXPECT_EQ(rng.next(), want);
  }
}

TEST(RngGolden, NextBelowIsPinned) {
  struct Case {
    std::uint64_t bound;
    std::vector<std::uint64_t> draws;
    std::uint64_t next_after;  ///< the raw draw that follows (counts rejections)
  };
  const std::vector<Case> cases = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0}, 0x180ce3f7f297c5cdull},
      {7, {3, 6, 4, 0, 1, 1, 5, 0}, 0x180ce3f7f297c5cdull},
      {(1ull << 32) + 1,
       {2422715540ull, 4120432423ull, 2900037274ull, 328507101ull, 699518645ull,
        1219321300ull, 3485482147ull, 333237577ull},
       0x180ce3f7f297c5cdull},
      // Just over 2^63: about half of all raw draws fall in the rejected
      // low range, so this case runs Lemire's rejection loop.
      {(1ull << 63) + 1,
       {5202742004699958244ull, 705463628091124187ull, 7485015916261750942ull,
        866505305348629222ull, 1188684565262527488ull, 1660446388817604348ull,
        1035603272523623730ull, 6762257919714845645ull},
       0x93be5291c1318fc8ull},
  };
  for (const Case& c : cases) {
    Rng rng(43);
    for (const std::uint64_t want : c.draws) {
      EXPECT_EQ(rng.next_below(c.bound), want) << "bound " << c.bound;
    }
    EXPECT_EQ(rng.next(), c.next_after) << "bound " << c.bound;
  }
}

TEST(RngGolden, Uniform01IsPinned) {
  Rng rng(44);
  for (const double want : {0x1.a25dc8f3b013p-1, 0x1.5df15caa37e1dp-1,
                            0x1.a868585f557eep-1, 0x1.5910fc1234a92p-2}) {
    EXPECT_EQ(rng.uniform01(), want);
  }
}

TEST(RngGolden, ShuffleIsPinned) {
  const std::vector<std::pair<std::uint64_t, std::vector<int>>> cases = {
      {45, {14, 15, 22, 9,  2,  7,  3,  27, 25, 12, 28, 26, 21, 31, 16, 23,
            8,  20, 30, 11, 1,  29, 17, 6,  24, 13, 19, 10, 18, 5,  0,  4}},
      {46, {10, 16, 5,  12, 14, 27, 2,  28, 31, 29, 20, 11, 13, 1,  25, 3,
            15, 6,  7,  21, 4,  24, 9,  17, 26, 0,  23, 18, 30, 8,  19, 22}},
  };
  for (const auto& [seed, want] : cases) {
    Rng rng(seed);
    std::vector<int> v(32);
    for (int i = 0; i < 32; ++i) v[static_cast<std::size_t>(i)] = i;
    rng.shuffle(v);
    EXPECT_EQ(v, want) << "seed " << seed;
  }
}

TEST(Rng, WorksWithStdDistributions) {
  Rng rng(15);
  // UniformRandomBitGenerator interface sanity.
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ull);
  std::uint64_t x = rng();
  (void)x;
}

}  // namespace
}  // namespace dyngossip
