// Tests for the static spanning-tree baseline (Section 1).
#include "core/spanning_tree.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/static_adversary.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

TEST(SpanningTree, SingleSourcePipelineExactTokenCount) {
  constexpr std::size_t n = 10;
  constexpr std::uint32_t k = 16;
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, k));
  StaticAdversary adversary(complete_graph(n));
  UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(10'000);
  ASSERT_TRUE(r.completed);
  // Each token crosses each of the n-1 tree edges exactly once.
  EXPECT_EQ(r.unicast.token, static_cast<std::uint64_t>(n - 1) * k);
  EXPECT_EQ(r.duplicate_token_deliveries, 0u);
  // Construction costs O(m): joins <= 2m, accepts <= n.
  EXPECT_LE(r.unicast.control,
            2ull * complete_graph(n).num_edges() + n);
}

TEST(SpanningTree, MultiSourceAlsoExactlyOnce) {
  constexpr std::size_t n = 12;
  const auto space = std::make_shared<TokenSpace>(
      TokenSpace::contiguous({{1, 5}, {6, 3}, {11, 7}}));
  Rng rng(5);
  StaticAdversary adversary(connected_erdos_renyi(n, 0.3, rng));
  UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(10'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.unicast.token,
            static_cast<std::uint64_t>(n - 1) * space->total_tokens());
  EXPECT_EQ(r.duplicate_token_deliveries, 0u);
  EXPECT_EQ(r.learnings,
            static_cast<std::uint64_t>(n - 1) * space->total_tokens());
}

TEST(SpanningTree, PipelineRoundsLinearInDepthPlusK) {
  // On a path rooted at one end the pipeline needs O(n + k) rounds after
  // the n-round construction window.
  constexpr std::size_t n = 16;
  constexpr std::uint32_t k = 32;
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, k));
  StaticAdversary adversary(path_graph(n));
  UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(10'000);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.rounds, n + n + k + 8u);
}

TEST(SpanningTree, TreeStructureIsConsistent) {
  constexpr std::size_t n = 9;
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(2, 1));
  StaticAdversary adversary(star_graph(n, /*center=*/4));
  SpanningTreeConfig cfg{n, space, /*root=*/2};
  UnicastEngine engine(SpanningTreeNode::make_all(cfg), adversary,
                       space->initial_knowledge(n), 1);
  engine.run(1'000);
  ASSERT_TRUE(engine.all_complete());
  // Star rooted at a leaf: the hub's parent is the root; every other leaf's
  // parent is the hub.
  const auto& root = static_cast<const SpanningTreeNode&>(engine.node(2));
  const auto& hub = static_cast<const SpanningTreeNode&>(engine.node(4));
  EXPECT_EQ(root.parent(), 2u);
  EXPECT_EQ(hub.parent(), 2u);
  for (NodeId v = 0; v < n; ++v) {
    if (v == 2 || v == 4) continue;
    const auto& leaf = static_cast<const SpanningTreeNode&>(engine.node(v));
    EXPECT_EQ(leaf.parent(), 4u) << "leaf " << v;
  }
  EXPECT_EQ(hub.children().size(), n - 2);
}

TEST(SpanningTree, AmortizedCostDropsWithK) {
  // The motivating curve: amortized = O(n^2/k + n) on a dense static graph.
  constexpr std::size_t n = 12;
  double prev_amortized = 1e18;
  for (std::uint32_t k : {1u, 8u, 64u}) {
    const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, k));
    StaticAdversary adversary(complete_graph(n));
    UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                         space->initial_knowledge(n), space->total_tokens());
    const RunMetrics r = engine.run(100'000);
    ASSERT_TRUE(r.completed);
    const double amortized = r.amortized(k);
    EXPECT_LT(amortized, prev_amortized);
    prev_amortized = amortized;
  }
  // For large k the amortized cost approaches the tree cost n-1.
  EXPECT_LT(prev_amortized, 2.0 * n);
}

TEST(SpanningTreeDeath, DynamicTopologyRejected) {
  constexpr std::size_t n = 8;
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, 4));
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 16;
  cc.churn_per_round = 4;  // guaranteed neighborhood changes
  cc.seed = 3;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  EXPECT_DEATH((void)engine.run(1'000), "DG_CHECK");
}

}  // namespace
}  // namespace dyngossip
