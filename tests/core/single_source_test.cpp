// Tests for Algorithm 1 (Single-Source-Unicast): correctness, the exact
// message-type invariants of Theorem 3.1, and the Theorem 3.4 round bound.
#include "core/single_source.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/scripted.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/registry.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

TEST(SingleSource, CompletesOnStaticPath) {
  constexpr std::size_t n = 6;
  constexpr std::uint32_t k = 4;
  StaticAdversary adversary(path_graph(n));
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 10'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  // Exactly-once delivery: (n-1) * k tokens, no duplicates.
  EXPECT_EQ(r.metrics.unicast.token, static_cast<std::uint64_t>(n - 1) * k);
  EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
  EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
}

TEST(SingleSource, CompletesFromNonZeroSourceOnStar) {
  constexpr std::size_t n = 9;
  constexpr std::uint32_t k = 7;
  StaticAdversary adversary(star_graph(n, /*center=*/4));
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 10'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source:source=4"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  // Star from the center: every leaf learns directly, pipelined 1/round.
  EXPECT_EQ(r.metrics.unicast.token, static_cast<std::uint64_t>(n - 1) * k);
}

TEST(SingleSource, SingleNodeTrivially) {
  StaticAdversary adversary(Graph(1));
  const SingleSourceConfig cfg{1, 5, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), 5);
  const RunMetrics r = engine.run(10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.unicast.total(), 0u);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(SingleSource, OneTokenTwoNodes) {
  StaticAdversary adversary(path_graph(2));
  AlgoBuildContext ctx;
  ctx.n = 2;
  ctx.k = 1;
  ctx.cap = 100;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.metrics.unicast.token, 1u);
  // announce (r1), request (r2), token (r3).
  EXPECT_EQ(r.rounds, 3u);
  EXPECT_EQ(r.metrics.unicast.completeness, 1u);
  EXPECT_EQ(r.metrics.unicast.request, 1u);
}

TEST(SingleSource, CompletenessAnnouncedOncePerPair) {
  // On a complete static graph every complete node eventually announces to
  // every other node at most once: total <= n(n-1).
  constexpr std::size_t n = 8;
  constexpr std::uint32_t k = 3;
  StaticAdversary adversary(complete_graph(n));
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 10'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.metrics.unicast.completeness, static_cast<std::uint64_t>(n) * (n - 1));
}

TEST(SingleSource, RequestsBoundedByTheorem31) {
  // Type-3 accounting: requests <= nk + deletions on every execution.
  constexpr std::size_t n = 16;
  constexpr std::uint32_t k = 24;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 40;
  cc.churn_per_round = 6;
  cc.sigma = 1;  // harshest legal churn
  cc.seed = 11;
  ChurnAdversary adversary(cc);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 100'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.metrics.unicast.request,
            static_cast<std::uint64_t>(n) * k + r.metrics.deletions);
  EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
}

TEST(SingleSource, CompetitiveResidualWithinBound) {
  constexpr std::size_t n = 20;
  constexpr std::uint32_t k = 30;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 50;
    cc.churn_per_round = 8;
    cc.seed = seed;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 100'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.metrics.competitive_residual(1.0),
              4.0 * bounds::single_source_messages(n, k))
        << "seed " << seed;
  }
}

TEST(SingleSource, RoundBoundOnThreeStableGraphs) {
  // Theorem 3.4: O(nk) rounds under 3-edge stability.
  constexpr std::size_t n = 16;
  constexpr std::uint32_t k = 8;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 32;
  cc.churn_per_round = 4;
  cc.sigma = 3;
  cc.seed = 13;
  ChurnAdversary adversary(cc);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 100'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 2 * n * k);
}

TEST(SingleSource, RequestEdgeCutForcesRerequest) {
  // Scripted scenario: node 1 requests from the source over edge {0,1}; the
  // adversary deletes the edge exactly when the answer would flow; node 1
  // must re-request over the (new) replacement edge and still finish.
  Graph direct(3);  // 0-1, 1-2
  direct.add_edge(0, 1);
  direct.add_edge(1, 2);
  Graph detour(3);  // 0-2, 1-2 : {0,1} is gone
  detour.add_edge(0, 2);
  detour.add_edge(1, 2);
  std::vector<Graph> script;
  script.push_back(direct);   // r1: source announces to 1
  script.push_back(direct);   // r2: node 1 requests token 0 over {0,1}
  script.push_back(detour);   // r3: {0,1} cut; the answer is lost
  for (int i = 0; i < 20; ++i) script.push_back(detour);
  ScriptedAdversary adversary(std::move(script));
  AlgoBuildContext ctx;
  ctx.n = 3;
  ctx.k = 1;
  ctx.cap = 100;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  // One request was wasted: requests > tokens delivered... tokens = 2.
  EXPECT_EQ(r.metrics.unicast.token, 2u);
  EXPECT_GE(r.metrics.unicast.request, 3u);
}

TEST(SingleSource, NodeStateIntrospection) {
  SingleSourceConfig cfg{4, 3, 0};
  SingleSourceNode source(0, cfg);
  SingleSourceNode other(1, cfg);
  EXPECT_TRUE(source.complete());
  EXPECT_FALSE(other.complete());
  EXPECT_EQ(source.tokens().count(), 3u);
  EXPECT_EQ(other.tokens().count(), 0u);
  EXPECT_FALSE(other.is_bridge_node());  // no neighbors yet
}

TEST(SingleSource, RequestPriorityPrefersNewEdges) {
  // On a static complete graph, after the first announcements all edges to
  // the source are 'new' for the first requests — the instrumentation
  // counters must reflect the priority order (new first).
  constexpr std::size_t n = 6;
  constexpr std::uint32_t k = 10;
  StaticAdversary adversary(complete_graph(n));
  SingleSourceConfig cfg{n, k, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k);
  engine.run(10'000);
  ASSERT_TRUE(engine.all_complete());
  std::uint64_t over_new = 0, over_idle = 0, over_contrib = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = static_cast<const SingleSourceNode&>(engine.node(v));
    over_new += node.requests_over(EdgeClass::kNew);
    over_idle += node.requests_over(EdgeClass::kIdle);
    over_contrib += node.requests_over(EdgeClass::kContributive);
  }
  EXPECT_GT(over_new, 0u);
  // Static graph, k > 1: pipelined requests continue over contributive edges.
  EXPECT_GT(over_contrib, 0u);
  EXPECT_EQ(over_new + over_idle + over_contrib, engine.metrics().unicast.request);
}

}  // namespace
}  // namespace dyngossip
