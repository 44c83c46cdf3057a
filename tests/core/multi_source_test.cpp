// Tests for Multi-Source-Unicast (Section 3.2.1).
#include "core/multi_source.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/registry.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

TokenSpacePtr spread_sources(std::size_t n, std::size_t s, std::uint32_t per_source) {
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t i = 0; i < s; ++i) {
    specs.push_back({static_cast<NodeId>(i * n / s), per_source});
  }
  return std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
}

TEST(MultiSource, CompletesOnStaticCycle) {
  constexpr std::size_t n = 10;
  const auto space = spread_sources(n, 3, 4);
  StaticAdversary adversary(cycle_graph(n));
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(100'000);
  EXPECT_TRUE(r.completed);
  const std::uint64_t k = space->total_tokens();
  EXPECT_EQ(r.learnings, (n - 1) * k);  // each source holds its own
  EXPECT_EQ(r.duplicate_token_deliveries, 0u);
  EXPECT_EQ(r.unicast.token, (n - 1) * k);
}

TEST(MultiSource, SingleSourceSpecialCaseMatchesAlgorithm1Costs) {
  // With s = 1 the multi-source algorithm degenerates to Algorithm 1: token
  // and request counts must coincide exactly on the same adversary schedule.
  constexpr std::size_t n = 12;
  constexpr std::uint32_t k = 9;
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 30;
  cc.churn_per_round = 4;
  cc.sigma = 3;
  cc.seed = 21;

  ChurnAdversary a1(cc);
  AlgoBuildContext single_ctx;
  single_ctx.n = n;
  single_ctx.k = k;
  single_ctx.cap = 100'000;
  const RunResult single = run_algo(AlgoSpec::parse("single_source"), single_ctx, a1);
  ChurnAdversary a2(cc);  // identical committed schedule
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, k));
  UnicastEngine multi_engine(MultiSourceNode::make_all({n, space}), a2,
                             space->initial_knowledge(n), space->total_tokens());
  const RunMetrics multi = multi_engine.run(100'000);

  ASSERT_TRUE(single.completed);
  ASSERT_TRUE(multi.completed);
  EXPECT_EQ(single.metrics.unicast.token, multi.unicast.token);
  EXPECT_EQ(single.metrics.unicast.request, multi.unicast.request);
  EXPECT_EQ(single.metrics.unicast.completeness, multi.unicast.completeness);
  EXPECT_EQ(single.rounds, multi.rounds);
}

TEST(MultiSource, CompetitiveResidualWithinTheorem35) {
  constexpr std::size_t n = 16;
  const std::size_t s = 4;
  const auto space = spread_sources(n, s, 6);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 40;
  cc.churn_per_round = 6;
  cc.seed = 23;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(200'000);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.competitive_residual(1.0),
            4.0 * bounds::multi_source_messages(n, space->total_tokens(), s));
  EXPECT_LE(r.unicast.request,
            static_cast<std::uint64_t>(n) * space->total_tokens() + r.deletions);
}

TEST(MultiSource, RoundBoundOnThreeStableGraphs) {
  // Theorem 3.6: O(nk) rounds under 3-edge stability.
  constexpr std::size_t n = 12;
  const auto space = spread_sources(n, 3, 4);
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 30;
  cc.churn_per_round = 4;
  cc.sigma = 3;
  cc.seed = 25;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(200'000);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 3ull * n * space->total_tokens());
}

TEST(MultiSource, MinimumSourceDisseminatesFirst) {
  // The priority rule serializes sources by ID: the first source's tokens
  // are globally disseminated no later than the last source's.
  constexpr std::size_t n = 12;
  const auto space = spread_sources(n, 3, 5);
  StaticAdversary adversary(complete_graph(n));
  MultiSourceConfig cfg{n, space};
  UnicastEngine engine(MultiSourceNode::make_all(cfg), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  UnicastEngineOptions opts;  // (defaults)
  Round first_done = 0, last_done = 0;
  while (!engine.all_complete() && engine.round() < 100'000) {
    engine.step();
    auto all_have = [&](std::size_t src) {
      for (NodeId v = 0; v < n; ++v) {
        for (const TokenId t : space->tokens_of(src)) {
          if (!engine.knowledge_of(v).test(t)) return false;
        }
      }
      return true;
    };
    if (first_done == 0 && all_have(0)) first_done = engine.round();
    if (last_done == 0 && all_have(space->num_sources() - 1)) {
      last_done = engine.round();
    }
  }
  ASSERT_TRUE(engine.all_complete());
  EXPECT_LE(first_done, last_done);
}

TEST(MultiSource, EveryNodeASource) {
  // n-gossip: one token per node (the open-problem regime of Section 4).
  constexpr std::size_t n = 10;
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t v = 0; v < n; ++v) specs.push_back({static_cast<NodeId>(v), 1});
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 24;
  cc.churn_per_round = 3;
  cc.sigma = 3;
  cc.seed = 27;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(200'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.learnings, (n - 1) * n);
}

TEST(MultiSource, AnnouncementThrottleOnePerEdgePerRound) {
  // Task 1 sends at most one completeness announcement per edge per round:
  // with s sources and a static star, the center receives at most
  // (n-1) announcements per round.
  constexpr std::size_t n = 8;
  const auto space = spread_sources(n, 4, 2);
  StaticAdversary adversary(star_graph(n, 0));
  MultiSourceConfig cfg{n, space};
  UnicastEngine engine(MultiSourceNode::make_all(cfg), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  std::uint64_t prev_completeness = 0;
  for (int i = 0; i < 30 && !engine.all_complete(); ++i) {
    engine.step();
    const std::uint64_t now = engine.metrics().unicast.completeness;
    // Global per-round announcement budget: one per directed edge.
    EXPECT_LE(now - prev_completeness, 2 * adversary.num_nodes() - 2);
    prev_completeness = now;
  }
}

}  // namespace
}  // namespace dyngossip
