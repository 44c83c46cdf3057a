// Dynamic-graph bookkeeping: edge diffs, TC(E), insertion ages.
//
// The paper's cost model (Definition 1.3) charges the adversary one unit per
// *edge insertion*: TC(E) = Σ_r |E+_r| with E_0 = ∅, and observes that the
// number of deletions is bounded by the number of insertions.  The tracker
// consumes the round-graph sequence an adversary produces, computes the
// per-round insertion/deletion sets, accumulates TC, and remembers each live
// edge's most recent insertion round (needed both for σ-stability validation
// and for the "new edge" classification of Algorithm 1).
//
// Storage is the previous round's CSR: offsets, sorted neighbor blocks and
// one insertion round per arc, double-buffered.  Each round diffs node block
// against node block.  A block whose bytes did not change copies its rounds
// and moves on; a changed block runs a two-pointer merge and reports each
// edge {u, w} from u's side only (u < w), so E+ and E- come out in canonical
// EdgeKey order.  No hashing and no steady-state allocation on the engine
// hot path.
//
// When the snapshot was patched forward from the revision this tracker
// holds (RoundGraphView::patched_from), advance skips the compare: the
// snapshot's net delta (graph/round_delta.hpp) becomes the diff as it is,
// and the insertion rounds are patched in one forward pass of segment
// copies between the located changes.  An unchanged revision costs
// nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// Per-round topology diff.
struct GraphDiff {
  /// E+_r: edges in round r but not round r-1 (sorted).
  std::vector<EdgeKey> inserted;
  /// E-_r: edges in round r-1 but not round r (sorted).
  std::vector<EdgeKey> removed;
};

/// Observes the sequence G_1, G_2, ... and accumulates the model's
/// adversary-cost statistics.
class DynamicGraphTracker {
 public:
  /// Tracker for an n-node network; the implicit predecessor graph is G_0=∅.
  explicit DynamicGraphTracker(std::size_t n);

  /// Ingests round r's graph (rounds must be consumed in order, from 1).
  /// Returns the diff against the previous round.
  GraphDiff advance(const Graph& g, Round r);

  /// Engine-path variant: ingests round r's CSR snapshot and returns a
  /// reference to an internally reused diff (valid until the next advance).
  /// Takes the snapshot's delta when the view was patched forward from the
  /// revision this tracker last ingested, else diffs block by block.
  const GraphDiff& advance(const RoundGraphView& view, Round r);

  /// Σ_r |E+_r| so far — the adversary's topological-change budget TC(E).
  [[nodiscard]] std::uint64_t topological_changes() const noexcept { return tc_; }

  /// Σ_r |E-_r| so far (always <= topological_changes()).
  [[nodiscard]] std::uint64_t deletions() const noexcept { return deletions_; }

  /// Most recent insertion round of a currently live edge; kNoRound if the
  /// edge is not currently present (or names a node outside [0, n)).
  /// O(log deg) binary search in the lower endpoint's block.
  [[nodiscard]] Round insertion_round(EdgeKey key) const;

  /// Shortest completed presence interval observed so far (in rounds); the
  /// sequence is σ-edge stable iff this is >= σ.  Returns kNoRound when no
  /// edge has been removed yet.
  [[nodiscard]] Round min_completed_lifetime() const noexcept {
    return min_lifetime_;
  }

  /// Number of rounds ingested.
  [[nodiscard]] Round rounds() const noexcept { return last_round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }

 private:
  /// One CSR generation: the arcs of round r and their insertion rounds.
  struct Snapshot {
    std::vector<std::size_t> offsets;  ///< n + 1 prefix sums
    std::vector<NodeId> targets;       ///< sorted per source block
    std::vector<Round> inserted;       ///< insertion round per arc
  };

  /// The block-by-block diff against live_.
  void advance_blocks(const RoundGraphView& view, Round r);

  /// The delta path: `view` was patched forward from live_'s revision.
  void advance_delta(const RoundGraphView& view, Round r);

  /// Lays out next_ with the view's offsets and targets (its rounds are
  /// filled after).
  void begin_advance(const RoundGraphView& view);

  std::size_t n_;
  Snapshot live_;      ///< the last ingested round
  Snapshot next_;      ///< double buffer the next round is written into
  RoundGraphView view_;  ///< the Graph overload's snapshot
  GraphDiff diff_;     ///< reused by the view-based advance
  std::uint64_t tc_ = 0;
  std::uint64_t deletions_ = 0;
  Round min_lifetime_ = kNoRound;
  Round last_round_ = 0;
  std::uint64_t revision_ = 0;  ///< Graph revision live_ holds (0: unknown)
};

}  // namespace dyngossip
