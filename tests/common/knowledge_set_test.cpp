// Tests for the hybrid sparse/dense KnowledgeSet: representation
// transitions across the promote/demote thresholds, and a randomized
// differential against DynamicBitset as the reference implementation
// (membership, counts, cursors, whole-set algebra).
#include "common/knowledge_set.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"

namespace dyngossip {
namespace {

TEST(KnowledgeSet, EmptyDefault) {
  KnowledgeSet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.none());
  EXPECT_TRUE(s.all());  // vacuously
  EXPECT_FALSE(s.is_dense());
}

TEST(KnowledgeSet, StartsSparseAndPromotesAtThreshold) {
  const std::size_t universe = 4096;
  const std::size_t threshold = KnowledgeSet::promote_threshold(universe);
  KnowledgeSet s(universe);
  for (std::size_t i = 0; i < threshold - 1; ++i) {
    EXPECT_TRUE(s.set(3 * i));
    EXPECT_FALSE(s.is_dense()) << "promoted early at " << i;
  }
  EXPECT_TRUE(s.set(3 * threshold));
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.count(), threshold);
  for (std::size_t i = 0; i < threshold - 1; ++i) EXPECT_TRUE(s.test(3 * i));
}

TEST(KnowledgeSet, InitiallySetIsDenseAndFull) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 1000u}) {
    KnowledgeSet s(universe, /*initially_set=*/true);
    EXPECT_TRUE(s.all()) << universe;
    EXPECT_EQ(s.count(), universe) << universe;
    EXPECT_EQ(s.find_first_unset(), universe) << universe;
  }
}

TEST(KnowledgeSet, DemotionHysteresisRoundTrip) {
  const std::size_t universe = 4096;
  const std::size_t promote = KnowledgeSet::promote_threshold(universe);
  const std::size_t demote = KnowledgeSet::demote_threshold(universe);
  ASSERT_LT(demote, promote);  // hysteresis band exists

  KnowledgeSet s(universe);
  for (std::size_t i = 0; i < promote; ++i) s.set(i);
  ASSERT_TRUE(s.is_dense());

  // Erasing back below the promote threshold must NOT demote (hysteresis) …
  while (s.count() >= demote + 1) s.reset(s.count() - 1);
  // … but dropping under the demote threshold must.
  EXPECT_TRUE(s.reset(s.count() - 1));
  EXPECT_FALSE(s.is_dense());

  // Members survive both transitions.
  for (std::size_t i = 0; i < s.count(); ++i) EXPECT_TRUE(s.test(i));
  EXPECT_FALSE(s.test(demote + 5));
}

// Every rank of `s` against the set_positions() oracle, plus past-the-end.
void expect_nth_set_matches_positions(const KnowledgeSet& s, const char* what) {
  const std::vector<std::size_t> want = s.set_positions();
  for (std::size_t rank = 0; rank < want.size(); ++rank) {
    EXPECT_EQ(s.nth_set(rank), want[rank]) << what << " rank " << rank;
  }
  EXPECT_EQ(s.nth_set(want.size()), s.size()) << what;
}

TEST(KnowledgeSet, NthSetMatchesPositionsInEveryRepresentation) {
  const std::size_t universe = 4096;
  const std::size_t promote = KnowledgeSet::promote_threshold(universe);
  const std::size_t demote = KnowledgeSet::demote_threshold(universe);
  Rng rng(11);
  KnowledgeSet s(universe);
  expect_nth_set_matches_positions(s, "empty");

  while (s.count() + 1 < promote) s.set(rng.next_below(universe));
  ASSERT_FALSE(s.is_dense());
  expect_nth_set_matches_positions(s, "sparse");

  while (s.count() < universe / 2) s.set(rng.next_below(universe));
  ASSERT_TRUE(s.is_dense());
  expect_nth_set_matches_positions(s, "dense");

  while (s.count() >= demote) s.reset(s.nth_set(rng.next_below(s.count())));
  ASSERT_FALSE(s.is_dense());
  expect_nth_set_matches_positions(s, "demoted");

  s.set_all();
  expect_nth_set_matches_positions(s, "full");
}

TEST(KnowledgeSet, EqualityIsRepresentationIndependent) {
  const std::size_t universe = 1024;
  const std::size_t promote = KnowledgeSet::promote_threshold(universe);
  // a: driven dense then emptied into the hysteresis band.  b: built sparse.
  KnowledgeSet a(universe), b(universe);
  for (std::size_t i = 0; i < promote; ++i) a.set(i);
  ASSERT_TRUE(a.is_dense());
  for (std::size_t i = 4; i < promote; ++i) a.reset(i);
  for (std::size_t i = 0; i < 4; ++i) b.set(i);
  ASSERT_FALSE(b.is_dense());
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b.set(7);
  EXPECT_FALSE(a == b);
}

TEST(KnowledgeSet, SetAllAndResetAllFlipRepresentation) {
  KnowledgeSet s(500);
  s.set(3);
  s.set_all();
  EXPECT_TRUE(s.is_dense());
  EXPECT_TRUE(s.all());
  s.reset_all();
  EXPECT_FALSE(s.is_dense());
  EXPECT_TRUE(s.none());
}

TEST(KnowledgeSet, ResizeGrowsWithAbsentPositions) {
  KnowledgeSet s(10);
  s.set(3);
  s.resize(100000);
  EXPECT_EQ(s.size(), 100000u);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.test(3));
  EXPECT_FALSE(s.test(99999));
  s.resize(50);  // shrink requests are no-ops
  EXPECT_EQ(s.size(), 100000u);
}

// ---------------------------------------------------------------------------
// Randomized differential: every operation mirrored against DynamicBitset.
// Universe sizes straddle the promote threshold so the walk crosses
// representations many times.
// ---------------------------------------------------------------------------

void expect_equivalent(const KnowledgeSet& s, const DynamicBitset& ref,
                       Rng& rng) {
  ASSERT_EQ(s.size(), ref.size());
  ASSERT_EQ(s.count(), ref.count());
  EXPECT_EQ(s.none(), ref.none());
  EXPECT_EQ(s.all(), ref.all());
  EXPECT_EQ(s.find_first_unset(), ref.find_first_unset());

  // Spot-check membership and find_next_set from random anchors.
  for (int probe = 0; probe < 16; ++probe) {
    const std::size_t pos = rng.next_below(ref.size());
    EXPECT_EQ(s.test(pos), ref.test(pos)) << pos;
    EXPECT_EQ(s.find_next_set(pos), ref.find_next_set(pos)) << pos;
  }

  // Cursor walks must visit exactly the reference positions, in order.
  std::vector<std::size_t> got;
  for (const std::size_t pos : s.set_bits()) got.push_back(pos);
  EXPECT_EQ(got, ref.set_positions());
  got.clear();
  for (const std::size_t pos : s.unset_bits()) got.push_back(pos);
  EXPECT_EQ(got, ref.unset_positions());
  EXPECT_EQ(s.set_positions(), ref.set_positions());
  EXPECT_EQ(s.unset_positions(), ref.unset_positions());
}

TEST(KnowledgeSet, RandomizedDifferentialSingleElement) {
  for (const std::size_t universe : {37u, 256u, 1000u, 5000u}) {
    Rng rng(1234 + universe);
    KnowledgeSet s(universe);
    DynamicBitset ref(universe);
    for (int step = 0; step < 2000; ++step) {
      const std::size_t pos = rng.next_below(universe);
      // Biased towards insertion so the walk reaches dense territory, with
      // occasional clears to force demotion paths.
      if (rng.bernoulli(0.7)) {
        EXPECT_EQ(s.set(pos), ref.set(pos)) << pos;
      } else if (rng.bernoulli(0.99)) {
        EXPECT_EQ(s.reset(pos), ref.reset(pos)) << pos;
      } else {
        s.reset_all();
        ref.reset_all();
      }
      if (step % 97 == 0) expect_equivalent(s, ref, rng);
    }
    expect_equivalent(s, ref, rng);
  }
}

std::pair<KnowledgeSet, DynamicBitset> random_pair(std::size_t universe,
                                                   std::size_t members,
                                                   Rng& rng) {
  KnowledgeSet s(universe);
  DynamicBitset ref(universe);
  for (std::size_t i = 0; i < members; ++i) {
    const std::size_t pos = rng.next_below(universe);
    s.set(pos);
    ref.set(pos);
  }
  return {std::move(s), std::move(ref)};
}

TEST(KnowledgeSet, RandomizedDifferentialWholeSetOps) {
  const std::size_t universe = 2048;
  Rng rng(99);
  // Sweep member counts so each operand lands sparse or dense at random —
  // all four representation pairings get exercised, including mixed.
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t ma = rng.next_below(universe / 4);
    const std::size_t mb = rng.next_below(universe / 4);
    auto [a, ra] = random_pair(universe, ma, rng);
    auto [b, rb] = random_pair(universe, mb, rng);

    EXPECT_EQ(a.union_count(b), ra.union_count(rb));
    EXPECT_EQ(a.intersect_count(b), ra.intersect_count(rb));
    EXPECT_EQ(a.contains_all(b), ra.contains_all(rb));
    EXPECT_EQ(a == b, ra == rb);

    KnowledgeSet u = a;
    DynamicBitset ru = ra;
    u |= b;
    ru |= rb;
    expect_equivalent(u, ru, rng);

    KnowledgeSet x = a;
    DynamicBitset rx = ra;
    x &= b;
    rx &= rb;
    expect_equivalent(x, rx, rng);

    KnowledgeSet d = a;
    DynamicBitset rd = ra;
    d.subtract(b);
    rd.subtract(rb);
    expect_equivalent(d, rd, rng);

    // A set always contains its own intersection and never gains from
    // subtracting a disjoint result — cheap closure sanity on the outputs.
    EXPECT_TRUE(a.contains_all(x));
    EXPECT_TRUE(u.contains_all(a));
    EXPECT_TRUE(u.contains_all(b));
    EXPECT_EQ(d.intersect_count(x) + d.intersect_count(b), d.intersect_count(x) + 0u);
  }
}

TEST(KnowledgeSet, AppendFastPathMatchesRandomOrder) {
  // Ascending insertion (the engines' common pattern) must produce the same
  // set as shuffled insertion of the same positions.
  const std::size_t universe = 10000;
  Rng rng(7);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 300; ++i) positions.push_back(rng.next_below(universe));

  KnowledgeSet ascending(universe);
  std::vector<std::size_t> sorted = positions;
  std::sort(sorted.begin(), sorted.end());
  for (const std::size_t pos : sorted) ascending.set(pos);

  KnowledgeSet shuffled(universe);
  for (const std::size_t pos : positions) shuffled.set(pos);

  EXPECT_TRUE(ascending == shuffled);
}

}  // namespace
}  // namespace dyngossip
