// Tests for the oblivious churn adversary.
#include "adversary/churn.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"

namespace dyngossip {
namespace {

ChurnConfig base_config() {
  ChurnConfig cfg;
  cfg.n = 20;
  cfg.target_edges = 50;
  cfg.churn_per_round = 5;
  cfg.sigma = 1;
  cfg.seed = 42;
  return cfg;
}

TEST(Churn, AlwaysConnected) {
  ChurnAdversary adversary(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 300; ++r) {
    v.round = r;
    EXPECT_TRUE(is_connected(adversary.unicast_round(v))) << "round " << r;
  }
}

TEST(Churn, EdgeCountStaysNearTarget) {
  ChurnAdversary adversary(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 100; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_GE(g.num_edges(), 45u);
    EXPECT_LE(g.num_edges(), 60u);
  }
}

TEST(Churn, ActuallyChurns) {
  ChurnAdversary adversary(base_config());
  DynamicGraphTracker tracker(20);
  UnicastRoundView v;
  for (Round r = 1; r <= 50; ++r) {
    v.round = r;
    tracker.advance(adversary.unicast_round(v), r);
  }
  // 5 deletions/round (minus warm-up) must show up in TC.
  EXPECT_GT(tracker.topological_changes(), 150u);
  EXPECT_GT(tracker.deletions(), 100u);
}

TEST(Churn, DeterministicUnderSeed) {
  ChurnAdversary a(base_config()), b(base_config());
  UnicastRoundView v;
  for (Round r = 1; r <= 40; ++r) {
    v.round = r;
    EXPECT_EQ(a.unicast_round(v).sorted_edges(), b.unicast_round(v).sorted_edges());
  }
}

TEST(Churn, ObliviousIgnoresViews) {
  // Identical seeds with totally different views must produce identical
  // schedules — the defining property of the oblivious adversary.
  ChurnAdversary a(base_config()), b(base_config());
  std::vector<KnowledgeSet> knowledge_a(20, KnowledgeSet(4, true));
  std::vector<KnowledgeSet> knowledge_b(20, KnowledgeSet(4));
  std::vector<SentRecord> traffic_b{{0, 1, Message::request(2)}};
  for (Round r = 1; r <= 30; ++r) {
    UnicastRoundView va;
    va.round = r;
    va.knowledge = &knowledge_a;
    UnicastRoundView vb;
    vb.round = r;
    vb.knowledge = &knowledge_b;
    vb.prev_messages = &traffic_b;
    EXPECT_EQ(a.unicast_round(va).sorted_edges(), b.unicast_round(vb).sorted_edges());
  }
}

TEST(Churn, FreshGraphModeMaximizesChurn) {
  ChurnConfig cfg = base_config();
  cfg.fresh_graph_each_round = true;
  ChurnAdversary adversary(cfg);
  DynamicGraphTracker tracker(20);
  UnicastRoundView v;
  std::uint64_t edge_sum = 0;
  for (Round r = 1; r <= 30; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_TRUE(is_connected(g));
    edge_sum += g.num_edges();
    tracker.advance(g, r);
  }
  // Fresh graphs share few edges: TC approaches the total edge volume.
  EXPECT_GT(tracker.topological_changes(), edge_sum / 2);
}

TEST(Churn, TinyNetworksSupported) {
  ChurnConfig cfg;
  cfg.n = 2;
  cfg.target_edges = 1;
  cfg.churn_per_round = 1;
  cfg.seed = 9;
  ChurnAdversary adversary(cfg);
  UnicastRoundView v;
  for (Round r = 1; r <= 20; ++r) {
    v.round = r;
    const Graph g = adversary.unicast_round(v);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_edges(), 1u);  // the only possible connected 2-node graph
  }
}

TEST(Churn, TargetBelowTreeIsRaised) {
  ChurnConfig cfg;
  cfg.n = 10;
  cfg.target_edges = 3;  // impossible: a connected graph needs >= 9
  cfg.seed = 1;
  ChurnAdversary adversary(cfg);
  UnicastRoundView v;
  v.round = 1;
  const Graph g = adversary.unicast_round(v);
  EXPECT_GE(g.num_edges(), 9u);
  EXPECT_TRUE(is_connected(g));
}

}  // namespace
}  // namespace dyngossip
