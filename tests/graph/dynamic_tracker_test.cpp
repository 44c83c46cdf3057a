// Tests for TC(E) accounting and edge-age tracking (Definition 1.3).
#include "graph/dynamic_tracker.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "adversary/sigma_stable.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

TEST(DynamicTracker, FirstRoundCountsAllEdgesAsInsertions) {
  DynamicGraphTracker tracker(4);
  const Graph g = path_graph(4);
  const GraphDiff diff = tracker.advance(g, 1);
  EXPECT_EQ(diff.inserted.size(), 3u);  // E_0 = ∅
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_EQ(tracker.topological_changes(), 3u);
  EXPECT_EQ(tracker.deletions(), 0u);
}

TEST(DynamicTracker, DiffsAcrossRounds) {
  DynamicGraphTracker tracker(4);
  Graph g1(4);
  g1.add_edge(0, 1);
  g1.add_edge(1, 2);
  tracker.advance(g1, 1);

  Graph g2(4);
  g2.add_edge(1, 2);  // kept
  g2.add_edge(2, 3);  // inserted
  const GraphDiff diff = tracker.advance(g2, 2);
  ASSERT_EQ(diff.inserted.size(), 1u);
  EXPECT_EQ(diff.inserted[0], edge_key(2, 3));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], edge_key(0, 1));
  EXPECT_EQ(tracker.topological_changes(), 3u);
  EXPECT_EQ(tracker.deletions(), 1u);
}

TEST(DynamicTracker, DeletionsNeverExceedInsertions) {
  Rng rng(17);
  DynamicGraphTracker tracker(16);
  for (Round r = 1; r <= 50; ++r) {
    const Graph g = connected_erdos_renyi(16, 0.15, rng);
    tracker.advance(g, r);
    EXPECT_LE(tracker.deletions(), tracker.topological_changes());
  }
}

TEST(DynamicTracker, InsertionRoundAndReinsertion) {
  DynamicGraphTracker tracker(3);
  Graph with(3), without(3);
  with.add_edge(0, 1);
  with.add_edge(1, 2);
  without.add_edge(1, 2);
  without.add_edge(0, 2);

  tracker.advance(with, 1);
  EXPECT_EQ(tracker.insertion_round(edge_key(0, 1)), 1u);
  tracker.advance(without, 2);
  EXPECT_EQ(tracker.insertion_round(edge_key(0, 1)), kNoRound);  // removed
  tracker.advance(with, 3);
  EXPECT_EQ(tracker.insertion_round(edge_key(0, 1)), 3u);  // re-inserted fresh
  // {0,1} was present exactly 1 round before removal.
  EXPECT_EQ(tracker.min_completed_lifetime(), 1u);
  // TC: r1 inserts 2, r2 inserts {0,2}, r3 re-inserts {0,1}.
  EXPECT_EQ(tracker.topological_changes(), 4u);
}

TEST(DynamicTracker, MinLifetimeTracksShortestInterval) {
  DynamicGraphTracker tracker(3);
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  tracker.advance(a, 1);
  EXPECT_EQ(tracker.min_completed_lifetime(), kNoRound);  // nothing removed yet
  tracker.advance(a, 2);
  tracker.advance(b, 3);  // {1,2} lived rounds 1-2 => lifetime 2
  EXPECT_EQ(tracker.min_completed_lifetime(), 2u);
}

TEST(DynamicTrackerDeath, RoundsMustBeConsecutive) {
  DynamicGraphTracker tracker(3);
  tracker.advance(path_graph(3), 1);
  EXPECT_DEATH(tracker.advance(path_graph(3), 3), "DG_CHECK");
}

TEST(DynamicTrackerDeath, NodeCountMustMatch) {
  DynamicGraphTracker tracker(3);
  EXPECT_DEATH(tracker.advance(path_graph(4), 1), "DG_CHECK");
}

TEST(DynamicTracker, ViewAdvanceMatchesGraphAdvance) {
  // The CSR-view overload (engine hot path) and the Graph overload must
  // produce identical diffs and statistics on the same round sequence.
  Rng rng(21);
  std::vector<Graph> rounds;
  rounds.push_back(random_connected_with_edges(16, 30, rng));
  for (int i = 0; i < 6; ++i) {
    Graph g = rounds.back();
    for (int cut = 0; cut < 3; ++cut) {
      const std::vector<EdgeKey> edges = g.sorted_edges();
      const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
      g.remove_edge(u, v);
    }
    connect_components(g, rng);
    rounds.push_back(std::move(g));
  }

  DynamicGraphTracker by_graph(16);
  DynamicGraphTracker by_view(16);
  RoundGraphView view;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const GraphDiff a = by_graph.advance(rounds[r], static_cast<Round>(r + 1));
    view.rebuild(rounds[r]);
    const GraphDiff& b = by_view.advance(view, static_cast<Round>(r + 1));
    EXPECT_EQ(a.inserted, b.inserted) << "round " << r + 1;
    EXPECT_EQ(a.removed, b.removed) << "round " << r + 1;
  }
  EXPECT_EQ(by_graph.topological_changes(), by_view.topological_changes());
  EXPECT_EQ(by_graph.deletions(), by_view.deletions());
  EXPECT_EQ(by_graph.min_completed_lifetime(), by_view.min_completed_lifetime());
  rounds.back().for_each_edge([&](EdgeKey key) {
    EXPECT_EQ(by_graph.insertion_round(key), by_view.insertion_round(key));
  });
}

// ---------------------------------------------------------------------------
// Differential check against the sorted-merge tracker.
//
// ReferenceTracker is the tracker as it stood before the CSR block diff: one
// flat array of (edge, insertion round) pairs sorted by key, merged against
// each round's sorted edge list.  The CSR tracker must agree with it on every
// diff, counter and insertion round, round by round.

class ReferenceTracker {
 public:
  GraphDiff advance(const Graph& g, Round r) {
    const std::vector<EdgeKey> edges = g.sorted_edges();
    GraphDiff diff;
    std::vector<LiveEdge> next;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < live_.size() || j < edges.size()) {
      if (j == edges.size() || (i < live_.size() && live_[i].key < edges[j])) {
        const Round lifetime = r - live_[i].inserted;
        min_lifetime = (min_lifetime == kNoRound) ? lifetime
                                                  : std::min(min_lifetime, lifetime);
        diff.removed.push_back(live_[i].key);
        ++deletions;
        ++i;
      } else if (i == live_.size() || edges[j] < live_[i].key) {
        diff.inserted.push_back(edges[j]);
        ++tc;
        next.push_back({edges[j], r});
        ++j;
      } else {
        next.push_back(live_[i]);
        ++i;
        ++j;
      }
    }
    live_ = std::move(next);
    return diff;
  }

  [[nodiscard]] Round insertion_round(EdgeKey key) const {
    const auto it = std::lower_bound(
        live_.begin(), live_.end(), key,
        [](const LiveEdge& e, EdgeKey k) { return e.key < k; });
    return (it == live_.end() || it->key != key) ? kNoRound : it->inserted;
  }

  std::uint64_t tc = 0;
  std::uint64_t deletions = 0;
  Round min_lifetime = kNoRound;

 private:
  struct LiveEdge {
    EdgeKey key;
    Round inserted;
  };
  std::vector<LiveEdge> live_;
};

/// Feeds `rounds` graphs from `next` to the reference, a view-fed tracker
/// and a Graph-fed tracker, comparing all three after every round.
void expect_matches_reference(std::size_t n, Round rounds,
                              const std::function<const Graph&(Round)>& next,
                              const std::string& what) {
  ReferenceTracker ref;
  DynamicGraphTracker by_view(n);
  DynamicGraphTracker by_graph(n);
  RoundGraphView view;
  Rng probe(99);
  std::vector<EdgeKey> absent;  // last round's removals, plus random pairs
  for (Round r = 1; r <= rounds; ++r) {
    SCOPED_TRACE(what + ", round " + std::to_string(r));
    const Graph& g = next(r);
    const GraphDiff want = ref.advance(g, r);
    view.rebuild(g);
    const GraphDiff& got = by_view.advance(view, r);
    const GraphDiff got_graph = by_graph.advance(g, r);
    ASSERT_EQ(got.inserted, want.inserted);
    ASSERT_EQ(got.removed, want.removed);
    ASSERT_EQ(got_graph.inserted, want.inserted);
    ASSERT_EQ(got_graph.removed, want.removed);
    for (const DynamicGraphTracker* t : {&by_view, &by_graph}) {
      EXPECT_EQ(t->topological_changes(), ref.tc);
      EXPECT_EQ(t->deletions(), ref.deletions);
      EXPECT_EQ(t->min_completed_lifetime(), ref.min_lifetime);
      EXPECT_EQ(t->rounds(), r);
    }

    bool ages_match = true;
    g.for_each_edge([&](EdgeKey key) {
      const Round want_round = ref.insertion_round(key);
      ages_match = ages_match && want_round != kNoRound &&
                   by_view.insertion_round(key) == want_round &&
                   by_graph.insertion_round(key) == want_round;
    });
    EXPECT_TRUE(ages_match) << "a live edge's insertion round differs";

    absent = want.removed;
    for (int i = 0; i < 8 && n >= 2; ++i) {
      const auto u = static_cast<NodeId>(probe.next_below(n));
      const auto v = static_cast<NodeId>(probe.next_below(n));
      if (u != v) absent.push_back(edge_key(u, v));
    }
    for (const EdgeKey key : absent) {
      EXPECT_EQ(by_view.insertion_round(key), ref.insertion_round(key));
      EXPECT_EQ(by_graph.insertion_round(key), ref.insertion_round(key));
    }
    const auto nn = static_cast<NodeId>(n);
    for (const EdgeKey key : {edge_key(0, nn), edge_key(nn, nn + 1),
                              edge_key(nn / 2, nn + 7),
                              EdgeKey{0},                       // self-loop {0, 0}
                              (EdgeKey{1} << 32) | EdgeKey{0}}) {  // non-canonical
      EXPECT_EQ(by_view.insertion_round(key), kNoRound);
      EXPECT_EQ(by_graph.insertion_round(key), kNoRound);
    }
  }
}

void expect_schedule_matches_reference(const std::string& spec, std::size_t n,
                                       Round rounds) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(spec), n, 7);
  UnicastRoundView v;
  expect_matches_reference(
      n, rounds,
      [&](Round r) -> const Graph& {
        v.round = r;
        return adversary->unicast_round(v);
      },
      spec);
}

TEST(DynamicTrackerDifferential, ChurnSigma1) {
  expect_schedule_matches_reference("churn:churn=16,edges=384", 96, 600);
}

TEST(DynamicTrackerDifferential, ChurnSigma3) {
  expect_schedule_matches_reference("churn:churn=16,edges=384,sigma=3", 96, 600);
}

TEST(DynamicTrackerDifferential, DenseChurnReaddsEdges) {
  expect_schedule_matches_reference("churn:churn=4,edges=27,sigma=2", 8, 400);
}

TEST(DynamicTrackerDifferential, FreshGraphs) {
  expect_schedule_matches_reference("fresh:edges=120", 48, 200);
}

TEST(DynamicTrackerDifferential, SigmaBursts) {
  expect_schedule_matches_reference("sigma:interval=4,turnover=0.3", 64, 400);
}

TEST(DynamicTrackerDifferential, SmoothedTrace) {
  const std::string path = ::testing::TempDir() + "tracker_differential_" +
                           std::to_string(::getpid()) + ".dgt";
  SigmaStableChurnConfig cfg;
  cfg.n = 40;
  cfg.target_edges = 120;
  cfg.churn_per_interval = 20;
  cfg.sigma = 3;
  cfg.seed = 11;
  {
    const std::unique_ptr<TraceWriter> writer = open_trace_writer(path, cfg.n, cfg.seed, "");
    generate_sigma_churn_trace(cfg, 200, *writer);
    writer->finish();
  }
  expect_schedule_matches_reference("smoothed:flips=6,base=" + path, 40, 250);
  std::remove(path.c_str());
}

TEST(DynamicTrackerDifferential, ScriptedEdgeCases) {
  // Empty rounds, isolated nodes, a full rewire, an unchanged repeat, and
  // the degenerate sizes n = 1 and n = 2.
  const std::vector<std::vector<EdgeKey>> script5 = {
      {},
      {edge_key(0, 1)},
      {edge_key(0, 1), edge_key(3, 4)},
      {},
      {edge_key(0, 1), edge_key(1, 2), edge_key(2, 3), edge_key(3, 4), edge_key(0, 4)},
      {edge_key(0, 1), edge_key(1, 2), edge_key(2, 3), edge_key(3, 4), edge_key(0, 4)},
      {edge_key(2, 4)},
      {edge_key(0, 2), edge_key(0, 3), edge_key(1, 4)},
      {edge_key(0, 1), edge_key(0, 2), edge_key(0, 3), edge_key(0, 4)},
      {edge_key(1, 2), edge_key(1, 3), edge_key(1, 4), edge_key(2, 3), edge_key(2, 4),
       edge_key(3, 4)},
      {},
  };
  const std::vector<std::vector<EdgeKey>> script2 = {
      {}, {edge_key(0, 1)}, {edge_key(0, 1)}, {}, {edge_key(0, 1)}, {}, {}};
  const std::vector<std::vector<EdgeKey>> script1(4);
  for (const auto* script : {&script5, &script2, &script1}) {
    const std::size_t n = script == &script5 ? 5 : script == &script2 ? 2 : 1;
    Graph g(n);
    expect_matches_reference(
        n, static_cast<Round>(script->size()),
        [&](Round r) -> const Graph& {
          g = Graph(n, (*script)[r - 1]);
          return g;
        },
        "scripted n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace dyngossip
