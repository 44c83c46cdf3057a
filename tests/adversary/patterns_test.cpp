// Tests for the rotating-star and path-shuffle adversaries.
#include "adversary/patterns.hpp"

#include <gtest/gtest.h>

#include "algo/registry.hpp"
#include "core/flooding.hpp"
#include "engine/broadcast_engine.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"

namespace dyngossip {
namespace {

TEST(RotatingStar, EveryRoundIsAStar) {
  RotatingStarAdversary adversary(8, 3);
  UnicastRoundView v;
  for (Round r = 1; r <= 20; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_EQ(g.num_edges(), 7u);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.degree(adversary.center_of(r)), 7u);
  }
}

TEST(RotatingStar, CenterCyclesThroughAllNodes) {
  constexpr std::size_t n = 6;
  RotatingStarAdversary adversary(n, 4);
  std::set<NodeId> centers;
  for (Round r = 1; r <= n; ++r) centers.insert(adversary.center_of(r));
  EXPECT_EQ(centers.size(), n);  // a permutation: all distinct
  // ... and it wraps.
  EXPECT_EQ(adversary.center_of(1), adversary.center_of(n + 1));
}

TEST(RotatingStar, MassiveTopologicalChange) {
  constexpr std::size_t n = 16;
  RotatingStarAdversary adversary(n, 5);
  DynamicGraphTracker tracker(n);
  UnicastRoundView v;
  for (Round r = 1; r <= 20; ++r) {
    v.round = r;
    tracker.advance(adversary.unicast_round(v), r);
  }
  // Each center change replaces ~n-2 edges.
  EXPECT_GT(tracker.topological_changes(), 19u * (n - 3));
}

TEST(RotatingStar, SingleSourceStillCompletesWithCompetitiveCost) {
  constexpr std::size_t n = 16;
  constexpr std::uint32_t k = 8;
  RotatingStarAdversary adversary(n, 6);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 200'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
  EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
  // TC is huge here; the residual must still be modest.
  EXPECT_LE(r.metrics.competitive_residual(1.0),
            4.0 * (static_cast<double>(n) * n + static_cast<double>(n) * k));
}

TEST(PathShuffle, EveryRoundIsAHamiltonianPath) {
  PathShuffleAdversary adversary(10, 7);
  UnicastRoundView v;
  for (Round r = 1; r <= 20; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_EQ(g.num_edges(), 9u);
    EXPECT_TRUE(is_connected(g));
    // A path has exactly two degree-1 endpoints, the rest degree 2.
    std::size_t deg1 = 0;
    for (NodeId u = 0; u < 10; ++u) {
      EXPECT_LE(g.degree(u), 2u);
      deg1 += (g.degree(u) == 1);
    }
    EXPECT_EQ(deg1, 2u);
  }
}

TEST(PathShuffle, DeterministicPerRound) {
  PathShuffleAdversary a(10, 8), b(10, 8);
  UnicastRoundView v;
  // Rounds can even be queried out of order (lazy materialization of a
  // committed schedule).
  v.round = 5;
  const Graph g5a = a.unicast_round(v);
  v.round = 2;
  (void)a.unicast_round(v);
  v.round = 5;
  EXPECT_EQ(g5a.sorted_edges(), b.unicast_round(v).sorted_edges());
}

TEST(PathShuffle, FloodingCompletesDespiteThinConnectivity) {
  constexpr std::size_t n = 12, k = 4;
  PathShuffleAdversary adversary(n, 9);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[t].set(t);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics r = engine.run(static_cast<Round>(10 * n * k));
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, n * k);  // the guarantee holds against ANY adversary
}

}  // namespace
}  // namespace dyngossip
