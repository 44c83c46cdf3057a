// Tests for DynamicBitset, including randomized differential tests against
// std::set as the reference implementation.
#include "common/dynamic_bitset.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dyngossip {
namespace {

TEST(DynamicBitset, EmptyDefault) {
  DynamicBitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.all());  // vacuously
}

TEST(DynamicBitset, SetTestResetAndCountCaching) {
  DynamicBitset b(100);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.set(5));
  EXPECT_FALSE(b.set(5));  // second set reports not-fresh
  EXPECT_TRUE(b.test(5));
  EXPECT_EQ(b.count(), 1u);
  EXPECT_TRUE(b.set(99));
  EXPECT_EQ(b.count(), 2u);
  EXPECT_TRUE(b.reset(5));
  EXPECT_FALSE(b.reset(5));
  EXPECT_EQ(b.count(), 1u);
  EXPECT_FALSE(b.test(5));
}

TEST(DynamicBitset, InitiallySetConstructorTrims) {
  for (std::size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    DynamicBitset b(size, /*initially_set=*/true);
    EXPECT_EQ(b.count(), size) << size;
    EXPECT_TRUE(b.all()) << size;
    EXPECT_EQ(b.find_first_unset(), size) << size;
  }
}

TEST(DynamicBitset, SetAllResetAll) {
  DynamicBitset b(70);
  b.set_all();
  EXPECT_TRUE(b.all());
  EXPECT_EQ(b.count(), 70u);
  b.reset_all();
  EXPECT_TRUE(b.none());
}

TEST(DynamicBitset, ResizeGrowsWithZeros) {
  DynamicBitset b(10);
  b.set(3);
  b.resize(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(150));
  b.resize(50);  // shrink requests are no-ops
  EXPECT_EQ(b.size(), 200u);
}

TEST(DynamicBitset, FindFirstUnset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.find_first_unset(), 0u);
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(b.find_first_unset(), i);
    b.set(i);
  }
  EXPECT_EQ(b.find_first_unset(), 130u);
}

TEST(DynamicBitset, FindNextSet) {
  DynamicBitset b(200);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_next_set(0), 0u);
  EXPECT_EQ(b.find_next_set(1), 63u);
  EXPECT_EQ(b.find_next_set(64), 64u);
  EXPECT_EQ(b.find_next_set(65), 199u);
  EXPECT_EQ(b.find_next_set(200), 200u);
}

TEST(DynamicBitset, Positions) {
  DynamicBitset b(100);
  b.set(1);
  b.set(64);
  b.set(99);
  const std::vector<std::size_t> set_want{1, 64, 99};
  EXPECT_EQ(b.set_positions(), set_want);
  const auto unset = b.unset_positions();
  EXPECT_EQ(unset.size(), 97u);
  EXPECT_EQ(unset.front(), 0u);
  EXPECT_EQ(unset.back(), 98u);
}

TEST(DynamicBitset, Equality) {
  DynamicBitset a(64), b(64), c(65);
  a.set(10);
  b.set(10);
  EXPECT_TRUE(a == b);
  b.set(11);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);  // different universes
}

class BitsetAlgebraTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetAlgebraTest, DifferentialAgainstStdSet) {
  const std::size_t universe = GetParam();
  Rng rng(1234 + universe);
  DynamicBitset a(universe), b(universe);
  std::set<std::size_t> ra, rb;
  for (std::size_t i = 0; i < universe; ++i) {
    if (rng.bernoulli(0.35)) {
      a.set(i);
      ra.insert(i);
    }
    if (rng.bernoulli(0.35)) {
      b.set(i);
      rb.insert(i);
    }
  }

  // Counting queries.
  std::set<std::size_t> runion = ra;
  runion.insert(rb.begin(), rb.end());
  std::set<std::size_t> rinter;
  for (const auto x : ra) {
    if (rb.count(x)) rinter.insert(x);
  }
  EXPECT_EQ(a.union_count(b), runion.size());
  EXPECT_EQ(a.intersect_count(b), rinter.size());
  EXPECT_EQ(a.contains_all(b),
            std::includes(ra.begin(), ra.end(), rb.begin(), rb.end()));

  // In-place union.
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), runion.size());
  for (const auto x : runion) EXPECT_TRUE(u.test(x));

  // In-place intersection.
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), rinter.size());
  for (const auto x : rinter) EXPECT_TRUE(i.test(x));

  // Difference.
  DynamicBitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), ra.size() - rinter.size());
  for (const auto x : ra) EXPECT_EQ(d.test(x), rb.count(x) == 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetAlgebraTest,
                         ::testing::Values(1, 63, 64, 65, 130, 512, 1000));

TEST(DynamicBitset, ContainsAllSelfAndEmpty) {
  DynamicBitset a(50), e(50);
  a.set(7);
  EXPECT_TRUE(a.contains_all(a));
  EXPECT_TRUE(a.contains_all(e));
  EXPECT_FALSE(e.contains_all(a));
}

std::vector<std::size_t> collect_set(const DynamicBitset& b) {
  std::vector<std::size_t> out;
  for (const std::size_t pos : b.set_bits()) out.push_back(pos);
  return out;
}

std::vector<std::size_t> collect_unset(const DynamicBitset& b) {
  std::vector<std::size_t> out;
  for (const std::size_t pos : b.unset_bits()) out.push_back(pos);
  return out;
}

TEST(DynamicBitsetCursor, EmptyUniverseYieldsNothing) {
  DynamicBitset b;
  EXPECT_TRUE(collect_set(b).empty());
  EXPECT_TRUE(collect_unset(b).empty());
}

class BitsetCursorEdgeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetCursorEdgeTest, CursorMatchesPositionsOracle) {
  const std::size_t universe = GetParam();
  Rng rng(99 + universe);
  DynamicBitset b(universe);
  for (std::size_t i = 0; i < universe; ++i) {
    if (rng.bernoulli(0.4)) b.set(i);
  }
  EXPECT_EQ(collect_set(b), b.set_positions());
  EXPECT_EQ(collect_unset(b), b.unset_positions());
}

TEST_P(BitsetCursorEdgeTest, FullAndEmptySets) {
  const std::size_t universe = GetParam();
  DynamicBitset empty(universe);
  EXPECT_TRUE(collect_set(empty).empty());
  EXPECT_EQ(collect_unset(empty).size(), universe);

  DynamicBitset full(universe, /*initially_set=*/true);
  EXPECT_EQ(collect_set(full).size(), universe);
  // The unset cursor must not walk into the trimmed tail of the last word.
  EXPECT_TRUE(collect_unset(full).empty());
}

TEST_P(BitsetCursorEdgeTest, NthSetMatchesPositionsOracle) {
  const std::size_t universe = GetParam();
  Rng rng(7 + universe);
  // Sparse, half-full and dense fills, plus the empty and full sets.
  for (const double p : {0.0, 0.02, 0.5, 0.97, 1.0}) {
    DynamicBitset b(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(p)) b.set(i);
    }
    const std::vector<std::size_t> want = b.set_positions();
    for (std::size_t rank = 0; rank < want.size(); ++rank) {
      EXPECT_EQ(b.nth_set(rank), want[rank]) << "p " << p << " rank " << rank;
    }
    EXPECT_EQ(b.nth_set(want.size()), b.size());  // past the last member
  }
}

// Universe sizes: 0 and the word-boundary straddles.
INSTANTIATE_TEST_SUITE_P(Sizes, BitsetCursorEdgeTest,
                         ::testing::Values(0, 1, 63, 64, 65, 128, 129, 1000));

/// The reference in-word select: clear the `rank` lowest set bits.
std::size_t naive_select(std::uint64_t w, std::size_t rank) {
  for (; rank > 0; --rank) w &= w - 1;
  return static_cast<std::size_t>(std::countr_zero(w));
}

/// `w` as the word at index `word` of a `words`-word bitset.
DynamicBitset bitset_of_word(std::uint64_t w, std::size_t word,
                             std::size_t words) {
  DynamicBitset b(64 * words);
  for (std::size_t i = 0; i < 64; ++i) {
    if ((w >> i) & 1) b.set(64 * word + i);
  }
  return b;
}

TEST(DynamicBitsetNthSet, EveryRankOfSingleWordsMatchesTheNaiveSelect) {
  std::vector<std::uint64_t> words{~0ull,
                                   0x8000000000000001ull,
                                   0xaaaaaaaaaaaaaaaaull,
                                   0x5555555555555555ull,
                                   0xff00ff00ff00ff00ull,
                                   0x00000000ffffffffull,
                                   0xff00000000000000ull,
                                   0x0101010101010101ull,
                                   0x8080808080808080ull};
  for (int bit = 0; bit < 64; ++bit) words.push_back(1ull << bit);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) words.push_back(rng.next());
  for (int i = 0; i < 50; ++i) {
    words.push_back(rng.next() & rng.next() & rng.next());  // sparse
  }
  for (const std::uint64_t w : words) {
    // The word alone, and as the middle word of three (the select must add
    // the word offset and skip the empty word before it).
    for (const std::size_t word : {std::size_t{0}, std::size_t{1}}) {
      const DynamicBitset b = bitset_of_word(w, word, 1 + 2 * word);
      const auto pop = static_cast<std::size_t>(std::popcount(w));
      ASSERT_EQ(b.count(), pop);
      for (std::size_t rank = 0; rank < pop; ++rank) {
        ASSERT_EQ(b.nth_set(rank), 64 * word + naive_select(w, rank))
            << std::hex << "word 0x" << w << std::dec << " rank " << rank;
      }
      EXPECT_EQ(b.nth_set(pop), b.size());
    }
  }
}

TEST(DynamicBitsetCursor, WordBoundaryPositions) {
  DynamicBitset b(130);
  for (const std::size_t pos : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                                std::size_t{127}, std::size_t{128},
                                std::size_t{129}}) {
    b.set(pos);
  }
  const std::vector<std::size_t> want{0, 63, 64, 127, 128, 129};
  EXPECT_EQ(collect_set(b), want);
}

TEST(DynamicBitsetCursor, SparseScanSkipsEmptyWords) {
  DynamicBitset b(64 * 64);
  b.set(5);
  b.set(63 * 64 + 1);
  const std::vector<std::size_t> want{5, 63 * 64 + 1};
  EXPECT_EQ(collect_set(b), want);
}

TEST(DynamicBitset, FindNextSetAcrossManyWordBoundaries) {
  DynamicBitset b(4 * 64 + 3);
  b.set(64);
  b.set(191);
  b.set(4 * 64 + 2);  // last valid position
  EXPECT_EQ(b.find_next_set(0), 64u);
  EXPECT_EQ(b.find_next_set(65), 191u);
  EXPECT_EQ(b.find_next_set(192), 4u * 64 + 2);
  EXPECT_EQ(b.find_next_set(4 * 64 + 3), b.size());
  b.reset(64);
  EXPECT_EQ(b.find_next_set(0), 191u);
}

}  // namespace
}  // namespace dyngossip
