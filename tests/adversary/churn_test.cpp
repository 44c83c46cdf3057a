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

// Schedule pins: a running FNV-1a chain over each round's canonical edge
// list, sampled at a few checkpoints (a failure names the first drifted
// window).  The values were taken from the implementation that predates the
// one-pass age list; any change to which edges churn cuts or adds, or to the
// ages that decide σ-eligibility, moves them.
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct SchedulePin {
  Round round;
  std::uint64_t chain;
};

void expect_schedule(const ChurnConfig& cfg, const std::vector<SchedulePin>& pins,
                     DynamicGraphTracker* tracker = nullptr) {
  ChurnAdversary adversary(cfg);
  UnicastRoundView v;
  std::uint64_t chain = 0xcbf29ce484222325ull;
  auto pin = pins.begin();
  for (Round r = 1; pin != pins.end(); ++r) {
    v.round = r;
    const Graph& g = adversary.unicast_round(v);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const EdgeKey key : g.sorted_edges()) h = fnv_fold(h, key);
    chain = fnv_fold(chain, h);
    if (tracker != nullptr) tracker->advance(g, r);
    if (r == pin->round) {
      EXPECT_EQ(chain, pin->chain) << "schedule drifted by round " << r;
      ++pin;
    }
  }
}

ChurnConfig frontier_config(Round sigma) {
  ChurnConfig cfg;  // churn:churn=64,edges=4096 at n = 512
  cfg.n = 512;
  cfg.target_edges = 4096;
  cfg.churn_per_round = 64;
  cfg.sigma = sigma;
  cfg.seed = 1;
  return cfg;
}

TEST(ChurnPins, FrontierScheduleSigma1) {
  expect_schedule(frontier_config(1), {{1, 0x60b42d19f465be78ull},
                                       {10, 0x348d0521b3d2323dull},
                                       {100, 0xad014ba57f1d6783ull},
                                       {2000, 0xe13ccef592f5db2bull}});
}

TEST(ChurnPins, FrontierScheduleSigma3IsSigmaStable) {
  DynamicGraphTracker tracker(512);
  expect_schedule(frontier_config(3),
                  {{1, 0x60b42d19f465be78ull},
                   {10, 0xbf8322e74c4ed710ull},
                   {100, 0x46599c9bda26a2e4ull},
                   {2000, 0x65346ed6a8e92a87ull}},
                  &tracker);
  EXPECT_GT(tracker.deletions(), 0u);
  EXPECT_GE(tracker.min_completed_lifetime(), 3u);
}

TEST(ChurnPins, NearCompleteGraphReaddsCutEdges) {
  // 27 of the 28 possible edges: a round that cuts 4 edges refills from at
  // most 5 absent pairs, so cut edges often come straight back.  With σ = 2
  // such an edge must restart its age at the round it returned, or the
  // next round's removable list (and so the schedule) changes.
  ChurnConfig cfg;
  cfg.n = 8;
  cfg.target_edges = 27;
  cfg.churn_per_round = 4;
  cfg.sigma = 2;
  cfg.seed = 3;
  expect_schedule(cfg, {{1, 0xe68a47b12d3136f5ull},
                        {10, 0xe213d8736399b84eull},
                        {100, 0xc8706ae9369ec48dull},
                        {400, 0x708190f1fbcdcd51ull}});
}

TEST(ChurnPins, FreshSchedule) {
  ChurnConfig cfg;
  cfg.n = 64;
  cfg.target_edges = 192;
  cfg.seed = 5;
  cfg.fresh_graph_each_round = true;
  expect_schedule(cfg, {{1, 0xa331e6e57fb92d80ull},
                        {10, 0x6a7beb5167c2381dull},
                        {100, 0xb99eb465d83f7db6ull},
                        {200, 0xf2353f58ee5a605cull}});
}

}  // namespace
}  // namespace dyngossip
