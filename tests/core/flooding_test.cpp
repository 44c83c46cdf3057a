// Tests for the broadcast flooding algorithms.
#include "core/flooding.hpp"
#include "core/random_flooding.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/static_adversary.hpp"
#include "engine/broadcast_engine.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

std::vector<KnowledgeSet> one_per_token(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  return init;
}

TEST(PhaseFlooding, BroadcastChoiceFollowsPhases) {
  constexpr std::size_t n = 4, k = 3;
  KnowledgeSet init(k);
  init.set(1);
  PhaseFloodingNode node(n, k, init);
  // Phase 0 (rounds 1..4): token 0 unknown -> silent.
  EXPECT_EQ(node.choose_broadcast(1), kNoToken);
  EXPECT_EQ(node.choose_broadcast(4), kNoToken);
  // Phase 1 (rounds 5..8): token 1 known -> broadcast it.
  EXPECT_EQ(node.choose_broadcast(5), 1u);
  EXPECT_EQ(node.choose_broadcast(8), 1u);
  // Phase 2 (rounds 9..12): token 2 unknown -> silent.
  EXPECT_EQ(node.choose_broadcast(9), kNoToken);
  // Phases wrap after k*n rounds.
  EXPECT_EQ(node.choose_broadcast(12 + 5), 1u);
}

TEST(PhaseFlooding, CompletesWithinNkRoundsOnStaticPath) {
  constexpr std::size_t n = 8, k = 5;
  StaticAdversary adversary(path_graph(n));
  const auto init = one_per_token(n, k, 3);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics r = engine.run(10 * n * k);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, n * k);
  // Learnings: everything not initially held must be learned.
  EXPECT_EQ(r.learnings, static_cast<std::uint64_t>(n) * k - k);
  // Broadcast accounting: at most n broadcasts per round.
  EXPECT_LE(r.broadcasts, static_cast<std::uint64_t>(r.rounds) * n);
}

TEST(PhaseFlooding, CompletesOnChurn) {
  constexpr std::size_t n = 16, k = 8;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 32;
  cc.churn_per_round = 4;
  cc.seed = 5;
  ChurnAdversary adversary(cc);
  const auto init = one_per_token(n, k, 6);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics r = engine.run(10 * n * k);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, n * k);  // the guarantee holds against ANY adversary
}

TEST(PhaseFlooding, AmortizedBroadcastsAtMostQuadratic) {
  constexpr std::size_t n = 16, k = 16;
  StaticAdversary adversary(star_graph(n));
  const auto init = one_per_token(n, k, 7);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics r = engine.run(10 * n * k);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.amortized(k), static_cast<double>(n) * n);
}

TEST(RandomFlooding, CompletesOnStaticAndChurn) {
  constexpr std::size_t n = 12, k = 6;
  const auto init = one_per_token(n, k, 8);
  {
    StaticAdversary adversary(cycle_graph(n));
    BroadcastEngine engine(RandomFloodingNode::make_all(n, k, init, /*seed=*/1),
                           adversary, init, k);
    const RunMetrics r = engine.run(100 * n * k);
    EXPECT_TRUE(r.completed);
  }
  {
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 24;
    cc.churn_per_round = 3;
    cc.seed = 9;
    ChurnAdversary adversary(cc);
    BroadcastEngine engine(RandomFloodingNode::make_all(n, k, init, /*seed=*/2),
                           adversary, init, k);
    const RunMetrics r = engine.run(100 * n * k);
    EXPECT_TRUE(r.completed);
  }
}

TEST(RandomFlooding, SilentWithoutTokens) {
  RandomFloodingNode node(4, KnowledgeSet(4), Rng(3));
  EXPECT_EQ(node.choose_broadcast(1), kNoToken);
  const TokenId received[] = {2};
  node.on_receive(1, received);
  EXPECT_EQ(node.choose_broadcast(2), 2u);
}

TEST(RandomFlooding, OnlyBroadcastsKnownTokens) {
  KnowledgeSet init(8);
  init.set(3);
  init.set(5);
  RandomFloodingNode node(8, init, Rng(4));
  for (Round r = 1; r <= 50; ++r) {
    const TokenId t = node.choose_broadcast(r);
    EXPECT_TRUE(t == 3 || t == 5);
  }
}

}  // namespace
}  // namespace dyngossip
