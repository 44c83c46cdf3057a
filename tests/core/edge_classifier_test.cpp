// Tests for the new/idle/contributive edge classification (Section 3.1).
#include "core/knowledge.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/graph.hpp"

namespace dyngossip {
namespace {

TEST(EdgeClassifier, EdgeIsNewForExactlyTwoRounds) {
  EdgeClassifier c;
  const std::vector<NodeId> with{5};
  c.begin_round(1, with);
  EXPECT_EQ(c.classify(5), EdgeClass::kNew);  // inserted in round 1
  c.begin_round(2, with);
  EXPECT_EQ(c.classify(5), EdgeClass::kNew);  // inserted in round r-1
  c.begin_round(3, with);
  EXPECT_EQ(c.classify(5), EdgeClass::kIdle);  // no contribution yet
}

TEST(EdgeClassifier, LearningMakesContributive) {
  EdgeClassifier c;
  const std::vector<NodeId> with{2};
  c.begin_round(1, with);
  c.begin_round(2, with);
  c.note_learning_over(2);  // token learned over the edge at end of round 2
  c.begin_round(3, with);
  EXPECT_EQ(c.classify(2), EdgeClass::kContributive);
  c.begin_round(4, with);
  EXPECT_EQ(c.classify(2), EdgeClass::kContributive);  // stays contributive
}

TEST(EdgeClassifier, InFlightTokenCountsAsContribution) {
  EdgeClassifier c;
  const std::vector<NodeId> with{2};
  c.begin_round(1, with);
  c.begin_round(2, with);
  c.begin_round(3, with);
  EXPECT_EQ(c.classify(2, /*token_arriving_now=*/false), EdgeClass::kIdle);
  EXPECT_EQ(c.classify(2, /*token_arriving_now=*/true), EdgeClass::kContributive);
}

TEST(EdgeClassifier, ReinsertionResetsToNew) {
  EdgeClassifier c;
  const std::vector<NodeId> with{7};
  const std::vector<NodeId> without{};
  c.begin_round(1, with);
  c.begin_round(2, with);
  c.note_learning_over(7);
  c.begin_round(3, with);
  EXPECT_EQ(c.classify(7), EdgeClass::kContributive);
  c.begin_round(4, without);  // edge removed
  EXPECT_FALSE(c.is_neighbor(7));
  c.begin_round(5, with);  // re-inserted: fresh record, contribution cleared
  EXPECT_EQ(c.classify(7), EdgeClass::kNew);
  c.begin_round(6, with);
  c.begin_round(7, with);
  EXPECT_EQ(c.classify(7), EdgeClass::kIdle);
}

TEST(EdgeClassifier, TracksMultipleNeighborsIndependently) {
  EdgeClassifier c;
  c.begin_round(1, std::vector<NodeId>{1, 2});
  c.begin_round(2, std::vector<NodeId>{1, 2, 3});  // 3 inserted at round 2
  c.note_learning_over(1);
  c.begin_round(3, std::vector<NodeId>{1, 2, 3});
  EXPECT_EQ(c.classify(1), EdgeClass::kContributive);
  EXPECT_EQ(c.classify(2), EdgeClass::kIdle);
  EXPECT_EQ(c.classify(3), EdgeClass::kNew);
  EXPECT_EQ(c.insertion_round(3), 2u);
  EXPECT_EQ(c.insertion_round(1), 1u);
}

TEST(EdgeClassifierDeath, ClassifyUnknownNeighborAborts) {
  EdgeClassifier c;
  c.begin_round(1, std::vector<NodeId>{1});
  EXPECT_DEATH((void)c.classify(9), "DG_CHECK");
}

TEST(EdgeClassifierDeath, RoundsMustAdvance) {
  EdgeClassifier c;
  c.begin_round(2, std::vector<NodeId>{1});
  EXPECT_DEATH(c.begin_round(2, std::vector<NodeId>{1}), "DG_CHECK");
}

TEST(EdgeClassifier, ClassNames) {
  EXPECT_STREQ(edge_class_name(EdgeClass::kNew), "new");
  EXPECT_STREQ(edge_class_name(EdgeClass::kIdle), "idle");
  EXPECT_STREQ(edge_class_name(EdgeClass::kContributive), "contributive");
}

TEST(EdgeClassifier, SlotApiMatchesNodeApi) {
  EdgeClassifier c;
  const std::vector<NodeId> with{2, 5, 9};
  c.begin_round(1, with);
  c.begin_round(2, with);
  c.note_learning_over(5);
  c.begin_round(3, with);
  for (std::size_t slot = 0; slot < with.size(); ++slot) {
    EXPECT_EQ(c.slot_of(with[slot]), slot);
    EXPECT_EQ(c.classify_slot(slot), c.classify(with[slot]));
  }
  EXPECT_EQ(c.slot_of(4), EdgeClassifier::kNoSlot);
  EXPECT_EQ(c.classify_slot(1), EdgeClass::kContributive);
}

TEST(EdgeClassifier, ReinsertionAmidShiftingNeighborsKeepsRecordsStraight) {
  // The flat storage re-slots every neighbor each round; state must follow
  // the node id, not the slot.  Neighbor 5's record survives while its slot
  // moves (insertions below it), and neighbor 3's record resets when 3
  // vanishes for a round and returns.
  EdgeClassifier c;
  c.begin_round(1, std::vector<NodeId>{3, 5});
  c.begin_round(2, std::vector<NodeId>{3, 5});
  c.note_learning_over(5);
  c.note_learning_over(3);
  // 3 vanishes; 1 and 2 appear below 5 (5's slot shifts from 1 to 2).
  c.begin_round(3, std::vector<NodeId>{1, 2, 5});
  EXPECT_EQ(c.classify(5), EdgeClass::kContributive);  // record followed node 5
  EXPECT_EQ(c.classify(1), EdgeClass::kNew);
  EXPECT_FALSE(c.is_neighbor(3));
  // 3 returns: fresh record (new), contribution history gone.
  c.begin_round(4, std::vector<NodeId>{1, 2, 3, 5});
  EXPECT_EQ(c.classify(3), EdgeClass::kNew);
  EXPECT_EQ(c.insertion_round(3), 4u);
  c.begin_round(5, std::vector<NodeId>{1, 2, 3, 5});
  c.begin_round(6, std::vector<NodeId>{1, 2, 3, 5});
  EXPECT_EQ(c.classify(3), EdgeClass::kIdle);          // no contribution since return
  EXPECT_EQ(c.classify(5), EdgeClass::kContributive);  // old contribution persists
}

TEST(EdgeClassifier, InsertionRoundSurvivesManyMerges) {
  EdgeClassifier c;
  std::vector<NodeId> neighbors{10};
  c.begin_round(1, neighbors);
  for (Round r = 2; r <= 20; ++r) {
    // Churn the surrounding ids every round; 10 stays put.
    neighbors = {static_cast<NodeId>(r % 7), 10,
                 static_cast<NodeId>(20 + (r % 5))};
    std::sort(neighbors.begin(), neighbors.end());
    c.begin_round(r, neighbors);
  }
  EXPECT_EQ(c.insertion_round(10), 1u);
  EXPECT_EQ(c.classify(10), EdgeClass::kIdle);
}

TEST(EdgeClassifier, PartitionSplitsEligibleNeighborsByClass) {
  EdgeClassifier c;
  c.begin_round(1, std::vector<NodeId>{2, 4, 6});
  c.begin_round(2, std::vector<NodeId>{2, 4, 6});
  c.note_learning_over(4);
  c.begin_round(3, std::vector<NodeId>{1, 2, 4, 6, 8});
  // 1 and 8 are new; 4 contributed; 6 has a token arriving now; 2 is idle.
  // 8 is not eligible.
  const RequestList surviving{{0, 7}, {6, 3}, {9, 5}};
  std::vector<NodeId> by_class[3];
  by_class[0] = {42};  // stale content is cleared
  c.partition(surviving, [](NodeId w) { return w != 8; }, by_class);
  EXPECT_EQ(by_class[static_cast<std::size_t>(EdgeClass::kNew)],
            (std::vector<NodeId>{1}));
  EXPECT_EQ(by_class[static_cast<std::size_t>(EdgeClass::kIdle)],
            (std::vector<NodeId>{2}));
  EXPECT_EQ(by_class[static_cast<std::size_t>(EdgeClass::kContributive)],
            (std::vector<NodeId>{4, 6}));
}

// Reference classifier: rebuilds its per-neighbor records from scratch on
// every begin_round (no unchanged-neighborhood shortcut), keyed by node id.
class MergeEveryRound {
 public:
  void begin_round(Round r, const std::vector<NodeId>& neighbors) {
    round_ = r;
    std::map<NodeId, Record> next;
    for (const NodeId w : neighbors) {
      const auto it = records_.find(w);
      next[w] = it != records_.end() ? it->second : Record{r, false};
    }
    records_ = std::move(next);
  }
  void note_learning_over(NodeId w) { records_.at(w).contributed = true; }
  [[nodiscard]] Round insertion_round(NodeId w) const {
    const auto it = records_.find(w);
    return it == records_.end() ? kNoRound : it->second.inserted;
  }
  [[nodiscard]] EdgeClass classify(NodeId w, bool arriving) const {
    const Record& rec = records_.at(w);
    if (rec.inserted + 1 >= round_) return EdgeClass::kNew;
    if (rec.contributed || arriving) return EdgeClass::kContributive;
    return EdgeClass::kIdle;
  }

 private:
  struct Record {
    Round inserted = 0;
    bool contributed = false;
  };
  std::map<NodeId, Record> records_;
  Round round_ = 0;
};

TEST(EdgeClassifier, UnchangedNeighborhoodShortcutMatchesFullMerge) {
  // Random neighbor sequences over a small id universe: about half the
  // rounds repeat the last list exactly (the shortcut), the rest add ids
  // (shifting the slots of the ids above them) and drop ids (which may come
  // back later as fresh insertions).  Some rounds are skipped entirely, as a
  // crashed node skips its send step.
  constexpr NodeId kUniverse = 12;
  Rng rng(77);
  for (int seq = 0; seq < 40; ++seq) {
    EdgeClassifier fast;
    MergeEveryRound ref;
    std::vector<NodeId> neighbors;
    Round r = 0;
    for (int step = 0; step < 60; ++step) {
      r += rng.bernoulli(0.2) ? 1 + static_cast<Round>(rng.next_below(3)) : 1;
      if (rng.bernoulli(0.5)) {
        std::vector<NodeId> next;
        for (const NodeId w : neighbors) {
          if (!rng.bernoulli(0.3)) next.push_back(w);
        }
        for (NodeId w = 0; w < kUniverse; ++w) {
          if (rng.bernoulli(0.15)) next.push_back(w);
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        neighbors = std::move(next);
      }
      fast.begin_round(r, neighbors);
      ref.begin_round(r, neighbors);
      ASSERT_TRUE(std::ranges::equal(fast.neighbors(), neighbors));
      for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
        const NodeId w = neighbors[slot];
        for (const bool arriving : {false, true}) {
          EXPECT_EQ(fast.classify_slot(slot, arriving), ref.classify(w, arriving))
              << "seq " << seq << " round " << r << " neighbor " << w;
        }
        EXPECT_EQ(fast.insertion_round(w), ref.insertion_round(w))
            << "seq " << seq << " round " << r << " neighbor " << w;
      }
      for (NodeId w = 0; w < kUniverse; ++w) {
        EXPECT_EQ(fast.is_neighbor(w),
                  std::binary_search(neighbors.begin(), neighbors.end(), w));
      }
      // Deliveries at the end of the round mark some edges contributive.
      for (const NodeId w : neighbors) {
        if (rng.bernoulli(0.1)) {
          fast.note_learning_over(w);
          ref.note_learning_over(w);
        }
      }
    }
  }
}

// Resync: a node that sleeps through rounds and is resynchronised from the
// tracker on waking must classify exactly like the reference that ran every
// round.  Node 0 is the classifying node; its neighborhood is the star of
// edges {0, w} fed to the tracker each round.

/// Feeds round r's star around node 0 to the tracker.
void advance_star(DynamicGraphTracker& tracker, Round r,
                  const std::vector<NodeId>& neighbors) {
  std::vector<EdgeKey> edges;
  for (const NodeId w : neighbors) edges.push_back(edge_key(0, w));
  tracker.advance(Graph(tracker.num_nodes(), edges), r);
}

void expect_matches(const EdgeClassifier& fast, const MergeEveryRound& ref,
                    const std::vector<NodeId>& neighbors, const char* what) {
  ASSERT_TRUE(std::ranges::equal(fast.neighbors(), neighbors)) << what;
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const NodeId w = neighbors[slot];
    for (const bool arriving : {false, true}) {
      EXPECT_EQ(fast.classify_slot(slot, arriving), ref.classify(w, arriving))
          << what << " neighbor " << w;
    }
    EXPECT_EQ(fast.insertion_round(w), ref.insertion_round(w))
        << what << " neighbor " << w;
  }
}

TEST(EdgeClassifierResync, EdgeThatVanishesAndReturnsWhileAsleepIsNewAgain) {
  DynamicGraphTracker tracker(8);
  EdgeClassifier fast;
  MergeEveryRound ref;
  const std::vector<NodeId> with{3, 5};
  const std::vector<NodeId> without{5};
  for (Round r = 1; r <= 3; ++r) {
    advance_star(tracker, r, with);
    fast.begin_round(r, with);
    ref.begin_round(r, with);
  }
  fast.note_learning_over(3);
  ref.note_learning_over(3);
  // Asleep in rounds 4-6: edge {0,3} vanishes in 4 and returns in 5.
  advance_star(tracker, 4, without);
  ref.begin_round(4, without);
  for (Round r = 5; r <= 7; ++r) {
    advance_star(tracker, r, with);
    ref.begin_round(r, with);
  }
  fast.resync(7, with, 0, tracker);
  expect_matches(fast, ref, with, "after resync");
  // The returned edge restarted at round 5: idle now, contribution gone.
  EXPECT_EQ(fast.insertion_round(3), 5u);
  EXPECT_EQ(fast.classify(3), EdgeClass::kIdle);
  // A plain begin_round sees the same list as before the sleep and would
  // wrongly keep the old contributive record.
  EdgeClassifier stale;
  stale.begin_round(3, with);
  stale.note_learning_over(3);
  stale.begin_round(7, with);
  EXPECT_EQ(stale.classify(3), EdgeClass::kContributive);
}

TEST(EdgeClassifierResync, NeighborInsertedBeforeTheWakeKeepsItsInsertionRound) {
  DynamicGraphTracker tracker(8);
  EdgeClassifier fast;
  MergeEveryRound ref;
  const std::vector<NodeId> before{2};
  const std::vector<NodeId> after{2, 6};
  advance_star(tracker, 1, before);
  fast.begin_round(1, before);
  ref.begin_round(1, before);
  // Asleep in rounds 2-4; {0,6} is inserted in round 3, so at the round-5
  // wake it is no longer new (inserted < r - 1).
  advance_star(tracker, 2, before);
  ref.begin_round(2, before);
  for (Round r = 3; r <= 5; ++r) {
    advance_star(tracker, r, after);
    ref.begin_round(r, after);
  }
  fast.resync(5, after, 0, tracker);
  expect_matches(fast, ref, after, "after resync");
  EXPECT_EQ(fast.insertion_round(6), 3u);
  EXPECT_EQ(fast.classify(6), EdgeClass::kIdle);
  // Inserted in round 4 instead: still new at the round-5 wake.
  DynamicGraphTracker late(8);
  EdgeClassifier woken;
  advance_star(late, 1, before);
  woken.begin_round(1, before);
  for (Round r = 2; r <= 3; ++r) advance_star(late, r, before);
  for (Round r = 4; r <= 5; ++r) advance_star(late, r, after);
  woken.resync(5, after, 0, late);
  EXPECT_EQ(woken.insertion_round(6), 4u);
  EXPECT_EQ(woken.classify(6), EdgeClass::kNew);
}

TEST(EdgeClassifierResync, ContributiveEdgeKeptAcrossSleep) {
  DynamicGraphTracker tracker(8);
  EdgeClassifier fast;
  MergeEveryRound ref;
  const std::vector<NodeId> first{1, 4};
  const std::vector<NodeId> later{1, 4, 7};
  for (Round r = 1; r <= 2; ++r) {
    advance_star(tracker, r, first);
    fast.begin_round(r, first);
    ref.begin_round(r, first);
  }
  fast.note_learning_over(4);
  ref.note_learning_over(4);
  // Asleep in rounds 3-5 while {0,7} appears (so the node is resynced).
  advance_star(tracker, 3, first);
  ref.begin_round(3, first);
  for (Round r = 4; r <= 6; ++r) {
    advance_star(tracker, r, later);
    ref.begin_round(r, later);
  }
  fast.resync(6, later, 0, tracker);
  expect_matches(fast, ref, later, "after resync");
  EXPECT_EQ(fast.classify(4), EdgeClass::kContributive);
  EXPECT_EQ(fast.insertion_round(4), 1u);
  EXPECT_EQ(fast.classify(1), EdgeClass::kIdle);
}

TEST(EdgeClassifierResync, RandomSleepsMatchMergeEveryRound) {
  // Random star sequences; the node sleeps for random stretches and, on
  // waking, is resynced iff an edge of its changed while it slept (the
  // engine's dirty bit), else it takes the plain begin_round.
  constexpr NodeId kUniverse = 12;
  Rng rng(2024);
  for (int seq = 0; seq < 40; ++seq) {
    DynamicGraphTracker tracker(kUniverse + 1);
    EdgeClassifier fast;
    MergeEveryRound ref;
    std::vector<NodeId> neighbors;
    bool asleep = false;
    bool dirty = false;
    for (Round r = 1; r <= 80; ++r) {
      std::vector<NodeId> next = neighbors;
      if (rng.bernoulli(0.4)) {
        next.clear();
        for (const NodeId w : neighbors) {
          if (!rng.bernoulli(0.3)) next.push_back(w);
        }
        for (NodeId w = 1; w <= kUniverse; ++w) {
          if (rng.bernoulli(0.15)) next.push_back(w);
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
      }
      if (asleep && next != neighbors) dirty = true;
      neighbors = std::move(next);
      advance_star(tracker, r, neighbors);
      ref.begin_round(r, neighbors);
      if (asleep && rng.bernoulli(0.6)) continue;  // sleeps through round r
      if (dirty) {
        fast.resync(r, neighbors, 0, tracker);
      } else {
        fast.begin_round(r, neighbors);
      }
      asleep = rng.bernoulli(0.5);
      dirty = false;
      expect_matches(fast, ref, neighbors, "awake");
      if (::testing::Test::HasFailure()) return;
      for (const NodeId w : neighbors) {
        if (rng.bernoulli(0.1)) {
          fast.note_learning_over(w);
          ref.note_learning_over(w);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dyngossip
