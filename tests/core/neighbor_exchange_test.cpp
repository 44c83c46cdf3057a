// Tests for the trivial push-only unicast baseline (Section 1's O(n²)
// amortized ceiling).
#include "core/neighbor_exchange.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/patterns.hpp"
#include "adversary/static_adversary.hpp"
#include "engine/unicast_engine.hpp"
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

TEST(NeighborExchange, CompletesOnStaticGraphs) {
  constexpr std::size_t n = 10, k = 6;
  const auto init = one_per_token(n, k, 1);
  StaticAdversary adversary(cycle_graph(n));
  UnicastEngine engine(NeighborExchangeNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run(100'000);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.learnings, static_cast<std::uint64_t>(n) * k - k);
}

TEST(NeighborExchange, TotalBoundedByN2K) {
  // The per-(sender, token, target) once-only rule caps everything at n²k.
  constexpr std::size_t n = 12, k = 8;
  const auto init = one_per_token(n, k, 2);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 30;
  cc.churn_per_round = 4;
  cc.seed = 3;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(NeighborExchangeNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run(100'000);
  ASSERT_TRUE(m.completed);
  EXPECT_LE(m.unicast.token, static_cast<std::uint64_t>(n) * n * k);
  // Push-only traffic: no requests, no announcements.
  EXPECT_EQ(m.unicast.request, 0u);
  EXPECT_EQ(m.unicast.completeness, 0u);
}

TEST(NeighborExchange, WastesDuplicateDeliveries) {
  // The defining inefficiency vs Algorithm 1: blind pushes hit nodes that
  // already hold the token.
  constexpr std::size_t n = 10, k = 10;
  const auto init = one_per_token(n, k, 4);
  StaticAdversary adversary(complete_graph(n));
  UnicastEngine engine(NeighborExchangeNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run(100'000);
  ASSERT_TRUE(m.completed);
  EXPECT_GT(m.duplicate_token_deliveries, 0u);
}

TEST(NeighborExchange, SendsEachTokenOncePerTargetPerSender) {
  // On a static K_n run to quiescence, every (sender, target, token) triple
  // fires at most once: total token messages <= n(n-1)k.
  constexpr std::size_t n = 6, k = 4;
  const auto init = one_per_token(n, k, 5);
  StaticAdversary adversary(complete_graph(n));
  UnicastEngine engine(NeighborExchangeNode::make_all(n, k, init), adversary,
                       init, k);
  // Run past completion until the protocol exhausts its send lists.
  for (int i = 0; i < 200; ++i) engine.step();
  EXPECT_LE(engine.metrics().unicast.token,
            static_cast<std::uint64_t>(n) * (n - 1) * k);
}

TEST(NeighborExchange, HandlesRotatingStar) {
  constexpr std::size_t n = 14, k = 6;
  const auto init = one_per_token(n, k, 6);
  RotatingStarAdversary adversary(n, 7);
  UnicastEngine engine(NeighborExchangeNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run(100'000);
  EXPECT_TRUE(m.completed);
}

}  // namespace
}  // namespace dyngossip
