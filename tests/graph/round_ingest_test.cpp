// Round-by-round differential test of the engines' graph ingest.
//
// Every round, the RoundIngest that engines use (delta path whenever the
// adversary committed its graph from the revision the ingest holds) is
// compared with the full path run beside it: a new RoundGraphView of the
// same graph and a tracker fed by the block-by-block diff.  The snapshots
// must agree on offsets and targets, and the trackers on the diff, TC,
// deletions, the shortest completed lifetime and the insertion round of
// every live edge, of the edges just removed, of random absent pairs and
// of out-of-range keys.
//
// The schedules cover every adversary that commits its graph (churn at
// σ = 1 and 3, dense re-adding churn, σ-stable bursts, the request cutter
// fed request traffic, static, a trace replayed past its end) and some
// that take the full path (fresh, star and smoothed).  Two traps of the
// net contract are pinned explicitly: a churn edge cut and re-added within
// one round, and a trace round that deletes and re-inserts one key.  The
// Graph change log and the ingest's guards are tested on their own.
#include "graph/round_ingest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/registry.hpp"
#include "adversary/sigma_stable.hpp"
#include "common/rng.hpp"
#include "engine/message.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// A per-process file name under the test temp directory (concurrent
/// runs of the suite from two checkouts must not share files).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "round_ingest_" + std::to_string(::getpid()) + "_" + name;
}

/// Request traffic over random arcs of `view` (feeds the request cutter,
/// which cuts edges that carried a request in the previous round).
std::vector<SentRecord> random_requests(const RoundGraphView& view, Rng& rng,
                                        std::size_t count) {
  std::vector<SentRecord> out;
  const auto n = static_cast<NodeId>(view.num_nodes());
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = static_cast<NodeId>(rng.next_below(n));
    const std::span<const NodeId> neigh = view.neighbors(v);
    if (neigh.empty()) continue;
    out.push_back({v, neigh[rng.next_below(neigh.size())], Message::request(0)});
  }
  return out;
}

/// Drives `adversary` for `rounds` rounds through a RoundIngest and the
/// full path side by side, comparing them after every round.  Returns the
/// number of rounds the ingest took on the delta path.
std::uint64_t expect_ingest_matches_full_path(Adversary& adversary, std::size_t n,
                                              Round rounds, const std::string& what,
                                              std::size_t requests_per_round = 0) {
  DynamicGraphTracker by_delta(n);
  DynamicGraphTracker by_diff(n);
  RoundIngest ingest(by_delta);
  Rng probe(99);
  std::vector<SentRecord> traffic;
  const std::uint64_t delta_before = RoundIngest::delta_rounds_total();
  for (Round r = 1; r <= rounds; ++r) {
    SCOPED_TRACE(what + ", round " + std::to_string(r));
    UnicastRoundView view;
    view.round = r;
    view.prev_messages = &traffic;
    const Graph& g = adversary.unicast_round(view);
    const GraphDiff& got = ingest.ingest(g, r, [](Round, std::size_t) {
      FAIL() << "disconnected round graph";
    });
    const RoundGraphView fresh(g);  // holds no revision: the full path
    const GraphDiff& want = by_diff.advance(fresh, r);

    const RoundGraphView& patched = ingest.view();
    EXPECT_EQ(patched.num_nodes(), fresh.num_nodes());
    EXPECT_TRUE(std::equal(patched.arc_offsets().begin(), patched.arc_offsets().end(),
                           fresh.arc_offsets().begin(), fresh.arc_offsets().end()));
    EXPECT_TRUE(std::equal(patched.arc_targets().begin(), patched.arc_targets().end(),
                           fresh.arc_targets().begin(), fresh.arc_targets().end()));
    EXPECT_EQ(got.inserted, want.inserted);
    EXPECT_EQ(got.removed, want.removed);
    EXPECT_EQ(by_delta.topological_changes(), by_diff.topological_changes());
    EXPECT_EQ(by_delta.deletions(), by_diff.deletions());
    EXPECT_EQ(by_delta.min_completed_lifetime(), by_diff.min_completed_lifetime());
    EXPECT_EQ(by_delta.rounds(), r);

    bool ages_match = true;
    g.for_each_edge([&](EdgeKey key) {
      ages_match =
          ages_match && by_delta.insertion_round(key) == by_diff.insertion_round(key);
    });
    EXPECT_TRUE(ages_match) << "a live edge's insertion round differs";
    std::vector<EdgeKey> absent = want.removed;
    for (int i = 0; i < 8 && n >= 2; ++i) {
      const auto u = static_cast<NodeId>(probe.next_below(n));
      const auto v = static_cast<NodeId>(probe.next_below(n));
      if (u != v) absent.push_back(edge_key(u, v));
    }
    const auto nn = static_cast<NodeId>(n);
    for (const EdgeKey key : {edge_key(0, nn), edge_key(nn, nn + 1), EdgeKey{0},
                              (EdgeKey{1} << 32) | EdgeKey{0}}) {
      absent.push_back(key);
    }
    for (const EdgeKey key : absent) {
      EXPECT_EQ(by_delta.insertion_round(key), by_diff.insertion_round(key));
    }
    if (::testing::Test::HasFailure()) break;  // report the first bad round only
    if (requests_per_round > 0) {
      traffic = random_requests(fresh, probe, requests_per_round);
    }
  }
  return RoundIngest::delta_rounds_total() - delta_before;
}

std::uint64_t expect_schedule_matches(const std::string& spec, std::size_t n,
                                      Round rounds, std::size_t requests_per_round = 0) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(spec), n, 7);
  return expect_ingest_matches_full_path(*adversary, n, rounds, spec, requests_per_round);
}

TEST(RoundIngest, ChurnSigma1) {
  EXPECT_EQ(expect_schedule_matches("churn:churn=16,edges=384", 96, 400), 399u);
}

TEST(RoundIngest, ChurnSigma3) {
  EXPECT_EQ(expect_schedule_matches("churn:churn=16,edges=384,sigma=3", 96, 400), 399u);
}

TEST(RoundIngest, DenseChurnReaddsEdges) {
  EXPECT_EQ(expect_schedule_matches("churn:churn=4,edges=27,sigma=2", 8, 400), 399u);
}

TEST(RoundIngest, SigmaStableBursts) {
  EXPECT_EQ(expect_schedule_matches("sigma:interval=4,turnover=0.3", 64, 300), 299u);
}

TEST(RoundIngest, RequestCutter) {
  // Heavy request traffic makes the cutter cut, replenish and reconnect.
  EXPECT_EQ(expect_schedule_matches("cutter:p=0.7", 48, 300, 40), 299u);
  EXPECT_EQ(expect_schedule_matches("cutter:p=1", 12, 300, 30), 299u);
}

TEST(RoundIngest, Static) {
  EXPECT_EQ(expect_schedule_matches("static:graph=gnp,p=0.2", 40, 50), 49u);
}

TEST(RoundIngest, FullGraphSchedulesTakeTheFullPath) {
  EXPECT_EQ(expect_schedule_matches("fresh:edges=120", 48, 100), 0u);
  EXPECT_EQ(expect_schedule_matches("star:", 16, 40), 0u);
}

/// A ring plus a hub joined to most nodes; every round toggles random hub
/// edges and chords {v, v+2} (some twice, so they net out) and commits.
/// The hub's block holds well over a hundred arcs with dozens of changes,
/// the ring keeps every round connected.
class HubChurn final : public Adversary {
 public:
  explicit HubChurn(std::size_t n) : n_(n), g_(n), rng_(21) {}
  [[nodiscard]] std::size_t num_nodes() const override { return n_; }
  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override {
    const auto n = static_cast<NodeId>(n_);
    if (view.round == 1) {
      for (NodeId v = 0; v < n; ++v) g_.add_edge(v, (v + 1) % n);
      for (NodeId v = 2; v + 1 < n; ++v) g_.add_edge(0, v);
    } else {
      for (int i = 0; i < 40; ++i) {
        const auto v = static_cast<NodeId>(2 + rng_.next_below(n_ - 3));
        toggle(0, v);
        const auto w = static_cast<NodeId>(rng_.next_below(n_));
        toggle(w, (w + 2) % n);
      }
    }
    g_.commit();
    return g_;
  }

 private:
  void toggle(NodeId u, NodeId v) {
    if (!g_.remove_edge(u, v)) g_.add_edge(u, v);
  }

  std::size_t n_;
  Graph g_;
  Rng rng_;
};

TEST(RoundIngest, HighDegreeBlocks) {
  HubChurn adversary(160);
  EXPECT_EQ(expect_ingest_matches_full_path(adversary, 160, 200, "hub churn"), 199u);
}

class RoundIngestTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("sigma.dgt");
    SigmaStableChurnConfig cfg;
    cfg.n = kN;
    cfg.target_edges = 3 * kN;
    cfg.churn_per_interval = kN / 2;
    cfg.sigma = 3;
    cfg.seed = 11;
    const std::unique_ptr<TraceWriter> writer =
        open_trace_writer(path_, kN, cfg.seed, "");
    generate_sigma_churn_trace(cfg, kRecorded, *writer);
    writer->finish();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static constexpr std::size_t kN = 40;
  static constexpr Round kRecorded = 150;
  std::string path_;
};

TEST_F(RoundIngestTrace, ReplayPastItsEnd) {
  TraceAdversaryOptions opts;
  opts.hold_last_graph = true;
  TraceAdversary replay(path_, opts);
  EXPECT_EQ(expect_ingest_matches_full_path(replay, kN, kRecorded + 60, "trace"),
            kRecorded + 59);
  EXPECT_TRUE(replay.exhausted());
}

TEST_F(RoundIngestTrace, SmoothedTakesTheFullPath) {
  EXPECT_EQ(expect_schedule_matches("smoothed:flips=6,base=" + path_, kN, 200), 0u);
}

TEST(RoundIngestNetDelta, ChurnEdgeCutAndReaddedInOneRound) {
  // On a triangle every round cuts one edge and the replenishment can only
  // re-add that same edge: each round churn re-ages it to r internally,
  // but the graph never changes, so the net delta is empty, TC stays at
  // the three round-1 insertions and every insertion round stays 1.
  ChurnConfig cfg;
  cfg.n = 3;
  cfg.target_edges = 3;
  cfg.churn_per_round = 1;
  cfg.seed = 4;
  ChurnAdversary adversary(cfg);
  DynamicGraphTracker tracker(3);
  RoundIngest ingest(tracker);
  std::uint64_t last_revision = 0;
  for (Round r = 1; r <= 20; ++r) {
    UnicastRoundView view;
    view.round = r;
    const Graph& g = adversary.unicast_round(view);
    EXPECT_EQ(g.delta_base(), last_revision) << "round " << r;
    EXPECT_TRUE(g.delta().inserted.empty()) << "round " << r;
    EXPECT_TRUE(g.delta().removed.empty()) << "round " << r;
    last_revision = g.revision();
    const GraphDiff& diff = ingest.ingest(g, r, [](Round, std::size_t) { FAIL(); });
    EXPECT_EQ(diff.inserted.size(), r == 1 ? 3u : 0u);
    EXPECT_TRUE(diff.removed.empty());
  }
  EXPECT_EQ(tracker.topological_changes(), 3u);
  EXPECT_EQ(tracker.deletions(), 0u);
  for (const EdgeKey key : {edge_key(0, 1), edge_key(0, 2), edge_key(1, 2)}) {
    EXPECT_EQ(tracker.insertion_round(key), 1u);
  }
  // The same schedule through the full path agrees.
  ChurnAdversary again(cfg);
  EXPECT_EQ(expect_ingest_matches_full_path(again, 3, 20, "triangle churn"), 19u);
}

TEST(RoundIngestNetDelta, TraceRoundDeletingAndReinsertingOneKey) {
  // Round 3 lists {1,2} in both its delete and its insert list: the reader
  // applies it as a no-op, and the replay's delta must net it out.
  const std::string path = temp_path("readd.jsonl");
  {
    std::ofstream out(path);
    out << R"({"dgt":1,"n":4,"seed":"0000000000000001"})" << "\n"
        << R"({"r":1,"ins":[[0,1],[1,2],[2,3]],"del":[]})" << "\n"
        << R"({"r":2,"ins":[[0,3]],"del":[[0,1]]})" << "\n"
        << R"({"r":3,"ins":[[0,2],[1,2]],"del":[[1,2]]})" << "\n"
        << R"({"r":4,"ins":[],"del":[]})" << "\n"
        << R"({"end":true,"rounds":4})" << "\n";
  }
  TraceAdversary replay(path);
  DynamicGraphTracker tracker(4);
  RoundIngest ingest(tracker);
  for (Round r = 1; r <= 4; ++r) {
    UnicastRoundView view;
    view.round = r;
    const Graph& g = replay.unicast_round(view);
    if (r == 3) {
      EXPECT_EQ(g.delta().inserted, std::vector<EdgeKey>{edge_key(0, 2)});
      EXPECT_TRUE(g.delta().removed.empty());
    }
    (void)ingest.ingest(g, r, [](Round, std::size_t) { FAIL(); });
  }
  EXPECT_EQ(tracker.topological_changes(), 5u);  // 3 + {0,3} + {0,2}
  EXPECT_EQ(tracker.deletions(), 1u);
  EXPECT_EQ(tracker.insertion_round(edge_key(1, 2)), 1u);  // never re-aged
  TraceAdversary again(path);
  EXPECT_EQ(expect_ingest_matches_full_path(again, 4, 6, "re-adding trace"), 5u);
  std::remove(path.c_str());
}

TEST(RoundIngestNetDelta, SetNetCancelsReaddedKeys) {
  RoundDelta delta;
  // {0,5} added once, cut once: unchanged.  {1,4} cut, added, cut: net
  // removed.  {3,6} added, cut, added: net inserted.
  const std::vector<EdgeKey> added = {edge_key(0, 1), edge_key(0, 5), edge_key(1, 4),
                                      edge_key(2, 3), edge_key(3, 6), edge_key(3, 6)};
  const std::vector<EdgeKey> cut = {edge_key(0, 5), edge_key(1, 4), edge_key(1, 4),
                                    edge_key(3, 6)};
  delta.set_net(added, cut);
  EXPECT_EQ(delta.inserted,
            (std::vector<EdgeKey>{edge_key(0, 1), edge_key(2, 3), edge_key(3, 6)}));
  EXPECT_EQ(delta.removed, std::vector<EdgeKey>{edge_key(1, 4)});
}

TEST(RoundIngestNetDelta, NewIngestStartsOnTheFullPath) {
  // A later phase's engine brings a new ingest over a shared tracker: its
  // first round must rebuild even though the graph carries a delta.
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse("churn:churn=8,edges=120"), 32, 3);
  DynamicGraphTracker shared(32);
  std::uint64_t delta_rounds = 0;
  Round r = 0;
  for (int phase = 0; phase < 3; ++phase) {
    RoundIngest ingest(shared);
    for (int i = 0; i < 10; ++i) {
      ++r;
      UnicastRoundView view;
      view.round = r;
      const std::uint64_t before = RoundIngest::delta_rounds_total();
      (void)ingest.ingest(adversary->unicast_round(view), r,
                          [](Round, std::size_t) { FAIL(); });
      delta_rounds += RoundIngest::delta_rounds_total() - before;
    }
  }
  EXPECT_EQ(delta_rounds, 27u);  // every round but each phase's first
}

// ---------------------------------------------------------------------------
// The Graph change log that the delta path reads.

TEST(GraphChangeLog, CommitNamesRevisionsAndNetsTheJournal) {
  Graph g(5);
  g.add_edge(0, 1);
  EXPECT_EQ(g.revision(), 0u);
  g.commit();
  const std::uint64_t first = g.revision();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(g.delta_base(), 0u);  // never committed before: no delta
  g.commit();
  EXPECT_EQ(g.revision(), first);  // unchanged: same revision
  EXPECT_FALSE(g.add_edge(0, 1));  // a failed call is no mutation
  EXPECT_FALSE(g.remove_edge(3, 4));
  EXPECT_EQ(g.revision(), first);

  g.remove_edge(0, 1);
  EXPECT_EQ(g.revision(), 0u);
  g.add_edge(1, 0);  // cut and re-added: no net change
  g.add_edge(2, 1);
  g.add_edge(3, 4);
  g.remove_edge(4, 3);
  g.commit();
  const std::uint64_t second = g.revision();
  EXPECT_NE(second, 0u);
  EXPECT_NE(second, first);
  EXPECT_EQ(g.delta_base(), first);
  EXPECT_EQ(g.delta().inserted, std::vector<EdgeKey>{edge_key(1, 2)});
  EXPECT_TRUE(g.delta().removed.empty());

  // A copy is the same edge set: same revision and delta.  A move carries
  // both and leaves the source with neither.
  Graph copy = g;
  EXPECT_EQ(copy.revision(), second);
  EXPECT_EQ(copy.delta_base(), first);
  EXPECT_EQ(copy.delta().inserted, std::vector<EdgeKey>{edge_key(1, 2)});
  copy.add_edge(0, 4);  // the copy moves on alone
  EXPECT_EQ(copy.revision(), 0u);
  EXPECT_EQ(g.revision(), second);
  const Graph moved = std::move(g);
  EXPECT_EQ(moved.revision(), second);
  EXPECT_EQ(moved.delta_base(), first);
  EXPECT_EQ(moved.delta().inserted, std::vector<EdgeKey>{edge_key(1, 2)});
  EXPECT_EQ(g.revision(), 0u);  // NOLINT(bugprone-use-after-move): pinned reset
  EXPECT_EQ(g.delta_base(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(GraphChangeLog, ViewFollowsRevisions) {
  Graph g(6);
  for (NodeId v = 0; v < 6; ++v) g.add_edge(v, (v + 1) % 6);
  RoundGraphView view;
  view.rebuild(g);  // uncommitted: full rebuild, no revision
  EXPECT_EQ(view.revision(), 0u);
  EXPECT_EQ(view.patched_from(), 0u);
  g.commit();
  view.rebuild(g);  // committed, but the view held no revision
  EXPECT_EQ(view.revision(), g.revision());
  EXPECT_EQ(view.patched_from(), 0u);
  view.rebuild(g);  // unchanged
  EXPECT_EQ(view.patched_from(), g.revision());
  const std::uint64_t before = g.revision();
  g.remove_edge(0, 1);
  g.add_edge(0, 3);
  g.commit();
  view.rebuild(g);  // patched by {0,3} in, {0,1} out
  EXPECT_EQ(view.patched_from(), before);
  EXPECT_EQ(view.revision(), g.revision());
  const RoundGraphView fresh(g);
  EXPECT_TRUE(std::equal(view.arc_targets().begin(), view.arc_targets().end(),
                         fresh.arc_targets().begin(), fresh.arc_targets().end()));
  g.add_edge(1, 4);  // mutated, not committed: full rebuild
  view.rebuild(g);
  EXPECT_EQ(view.patched_from(), 0u);
  EXPECT_EQ(view.revision(), 0u);
  EXPECT_EQ(view.num_edges(), 7u);
}

TEST(GraphChangeLog, JournalLongerThanTheGraphIsDropped) {
  // A committed graph mutated more than twice its size keeps no journal:
  // memory stays O(n + m), and the next commit has no delta (the
  // consumers rebuild).
  Graph g(8);
  for (NodeId v = 0; v < 8; ++v) g.add_edge(v, (v + 1) % 8);
  g.commit();
  for (int i = 0; i < 17; ++i) {  // 34 calls: past 2 * (8 + 8)
    g.add_edge(0, 4);
    g.remove_edge(0, 4);
  }
  g.commit();
  EXPECT_NE(g.revision(), 0u);
  EXPECT_EQ(g.delta_base(), 0u);
  EXPECT_TRUE(g.delta().inserted.empty());
  EXPECT_TRUE(g.delta().removed.empty());
}

// ---------------------------------------------------------------------------
// Guards: a delta that does not apply to the snapshot, or that changes the
// wrong degrees, aborts.  (Deltas from a Graph's change log cannot do
// either; these feed hand-made ones to the low-level calls.)

Graph four_cycle() {
  return Graph(4, {edge_key(0, 1), edge_key(1, 2), edge_key(2, 3), edge_key(0, 3)});
}

/// Patches a snapshot of the 4-cycle into g by a hand-made delta.
void patch_four_cycle(const Graph& g, const RoundDelta& delta) {
  RoundGraphView view(four_cycle());
  DeltaBuckets changes;
  changes.build(delta, 4);
  view.patch(g, changes);
}

TEST(RoundIngestGuardsDeath, InsertingAPresentEdgeTrips) {
  // Inserting {0,1} raises the degrees of 0 and 1, as g's do, but {0,1}
  // is already in the cycle.
  RoundDelta delta;
  delta.inserted = {edge_key(0, 1)};
  const Graph g(4, {edge_key(0, 1), edge_key(0, 2), edge_key(0, 3), edge_key(1, 2),
                    edge_key(1, 3)});
  EXPECT_DEATH(patch_four_cycle(g, delta), "DG_CHECK failed: live ==");
}

TEST(RoundIngestGuardsDeath, RemovingAnAbsentEdgeTrips) {
  // Removing {0,2} lowers the degrees of 0 and 2, as g's are, but the
  // cycle has no {0,2}.
  RoundDelta delta;
  delta.removed = {edge_key(0, 2)};
  const Graph g(4, {edge_key(0, 1), edge_key(1, 3), edge_key(2, 3)});
  EXPECT_DEATH(patch_four_cycle(g, delta), "DG_CHECK failed: live ==");
}

TEST(RoundIngestGuardsDeath, DeltaWithTheWrongDegreesTrips) {
  RoundDelta delta;
  delta.inserted = {edge_key(1, 3)};  // absent, but not g's change
  Graph g = four_cycle();
  g.add_edge(0, 2);
  EXPECT_DEATH(patch_four_cycle(g, delta), "DG_CHECK failed: degrees_match");
}

TEST(RoundIngestGuardsDeath, KeyInBothListsTrips) {
  RoundDelta delta;
  delta.inserted = {edge_key(0, 2)};
  delta.removed = {edge_key(0, 2)};
  DeltaBuckets changes;
  EXPECT_DEATH(changes.build(delta, 4),
               "DG_CHECK failed: inserted \\|\\| i == ins.size\\(\\)");
}

}  // namespace
}  // namespace dyngossip
