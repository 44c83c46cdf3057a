// Edge classification for the unicast algorithms (Section 3.1).
//
// Algorithm 1 prioritizes token requests over three classes of adjacent
// edges, evaluated from the incomplete endpoint's perspective:
//   new          — inserted at the beginning of round r or r-1;
//   contributive — not new, and a new token is sent over it between its
//                  last insertion and the end of round r (this includes a
//                  token the node *knows* is arriving this round, because it
//                  requested it last round and the edge survived);
//   idle         — neither.
// Priority: new > idle > contributive.  The idle-before-contributive order
// is what forces the adversary of Lemma 3.2 to delete an idle edge per
// bridge node in every futile round.
//
// EdgeClassifier tracks, per live incident edge, its last insertion round
// and whether a learning has happened over it since — exactly the local
// information the paper argues each node can maintain.
//
// Storage is a sorted parallel-array keyed by the position in the round's
// sorted neighbor list (the CSR neighbor slot).  begin_round compares the
// new neighbor span with the stored list: an unchanged neighborhood (most
// nodes in most rounds of a low-churn schedule) keeps every record as it
// stands; otherwise one linear merge of the previous round's state with the
// new span rebuilds the arrays in reused scratch buffers — no per-round
// hashing or node allocation either way.  The stored list is also the
// node's view of its current neighbors (neighbors()).  A node the engine
// parked through edge changes is brought back with resync, the same merge
// fed with the tracker's exact insertion rounds.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "graph/dynamic_tracker.hpp"

namespace dyngossip {

/// The three classes of Section 3.1.
enum class EdgeClass : std::uint8_t { kNew = 0, kIdle = 1, kContributive = 2 };

/// Per-edge request bookkeeping shared by the unicast algorithms:
/// (neighbor, token) pairs kept sorted by neighbor id.
using RequestList = std::vector<std::pair<NodeId, TokenId>>;

/// Entry for neighbor w in a sorted request list, or nullptr.
[[nodiscard]] const std::pair<NodeId, TokenId>* find_request(const RequestList& list,
                                                             NodeId w);

/// Folds the surviving in-flight requests into the round's fresh
/// assignment: sorts `fresh`, appends each surviving entry whose neighbor
/// received no fresh request this round, re-clears the surviving tokens
/// from `in_flight` (restoring its empty-between-rounds invariant), and
/// leaves `fresh` sorted by neighbor.  `surviving` must be sorted.
void carry_surviving_requests(RequestList& fresh, const RequestList& surviving,
                              KnowledgeSet& in_flight);

/// Human-readable class name.
[[nodiscard]] const char* edge_class_name(EdgeClass c) noexcept;

/// Per-node incident-edge state machine.
class EdgeClassifier {
 public:
  /// Sentinel slot for "not a current neighbor".
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Ingests round r's sorted neighbor list: newly appeared neighbors get
  /// a fresh insertion record (a re-inserted edge counts as new again, per
  /// the "last insertion" wording); vanished neighbors are dropped.  Changes
  /// are judged against the previous call, whatever its round: a node that
  /// skips rounds (crashed) sees no edge vanish and come back meanwhile.
  void begin_round(Round r, std::span<const NodeId> neighbors);

  /// begin_round for a node that skipped rounds while its edges changed:
  /// the records come out exactly as if begin_round had run in every
  /// skipped round.  `self`'s edges' last insertion rounds are read from
  /// `tracker` (which has ingested round r): a stored record is kept only
  /// if its edge was present at the last call and not re-inserted since;
  /// every other neighbor starts a fresh record at its insertion round.
  void resync(Round r, std::span<const NodeId> neighbors, NodeId self,
              const DynamicGraphTracker& tracker);

  /// The sorted neighbor list of the last begin_round (slot order).
  [[nodiscard]] std::span<const NodeId> neighbors() const noexcept {
    return neighbors_;
  }

  /// Classification of the live edge to neighbor w in the current round.
  /// `token_arriving_now` means the node knows a requested token arrives
  /// over this edge this round (counts as a contribution "by the end of
  /// round r").
  [[nodiscard]] EdgeClass classify(NodeId w, bool token_arriving_now = false) const;

  /// classify by neighbor slot (position of w in this round's sorted
  /// neighbor list) — the O(1) form for callers already iterating the span.
  [[nodiscard]] EdgeClass classify_slot(std::size_t slot,
                                        bool token_arriving_now = false) const {
    DG_DCHECK(slot < neighbors_.size());
    // "New in round r": inserted at the beginning of round r or r-1.
    if (inserted_[slot] + 1 >= round_) return EdgeClass::kNew;
    if (contributed_[slot] != 0 || token_arriving_now) return EdgeClass::kContributive;
    return EdgeClass::kIdle;
  }

  /// Partitions this round's neighbors w with eligible(w) into `by_class`
  /// (indexed by EdgeClass; cleared first; each list in neighbor order).
  /// A neighbor with an entry in `surviving` (last round's requests whose
  /// edge survived, sorted by neighbor) has a token arriving now; one
  /// cursor walks that list alongside the slots.
  template <typename Eligible>
  void partition(const RequestList& surviving, Eligible&& eligible,
                 std::vector<NodeId> (&by_class)[3]) const {
    for (auto& list : by_class) list.clear();
    auto arriving = surviving.begin();
    for (std::size_t slot = 0; slot < neighbors_.size(); ++slot) {
      const NodeId w = neighbors_[slot];
      while (arriving != surviving.end() && arriving->first < w) ++arriving;
      if (!eligible(w)) continue;
      const bool now = arriving != surviving.end() && arriving->first == w;
      by_class[static_cast<std::size_t>(classify_slot(slot, now))].push_back(w);
    }
  }

  /// Records that a new token was learned over the edge to w (call on
  /// first-time token receipt).
  void note_learning_over(NodeId w);

  /// Slot of w in the current round's neighbor list, or kNoSlot.
  [[nodiscard]] std::size_t slot_of(NodeId w) const;

  /// True iff w is a live neighbor this round.
  [[nodiscard]] bool is_neighbor(NodeId w) const { return slot_of(w) != kNoSlot; }

  /// Last insertion round of the live edge to w (kNoRound if absent).
  [[nodiscard]] Round insertion_round(NodeId w) const;

  /// Current round (the argument of the last begin_round or resync).
  [[nodiscard]] Round round() const noexcept { return round_; }

 private:
  /// The merge shared by begin_round and resync: rebuilds the records for
  /// round r's `neighbors` from the previous call's.  inserted_at(w, stored)
  /// is the last insertion round of the edge to w (`stored`: w has a record
  /// from the previous call); the record is kept iff that round is no later
  /// than the previous call's, else a fresh one starts there.
  template <typename InsertedAt>
  void merge(Round r, std::span<const NodeId> neighbors, InsertedAt&& inserted_at);

  // Parallel arrays over the current round's sorted neighbors.
  std::vector<NodeId> neighbors_;
  std::vector<Round> inserted_;
  std::vector<std::uint8_t> contributed_;
  // Previous round's state (merge source), reused as scratch via swap.
  std::vector<NodeId> prev_neighbors_;
  std::vector<Round> prev_inserted_;
  std::vector<std::uint8_t> prev_contributed_;
  Round round_ = 0;
};

}  // namespace dyngossip
