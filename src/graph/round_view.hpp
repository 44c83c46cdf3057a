// Immutable CSR snapshot of one round graph.
//
// The engines consume each round's topology read-only and in full: every
// node reads its sorted neighbor list, the budget check addresses directed
// edges, connectivity is verified, and the tracker diffs each node's
// neighbor block against its copy of the previous round's CSR.
// Serving all of that off the mutable Graph costs a per-node allocation and
// sort per round (Graph::sorted_neighbors).  RoundGraphView is the
// flat-snapshot alternative used by graph-processing systems (Ligra-style
// CSR): one O(n + m) rebuild per round into reusable buffers, after which
//   - neighbors(v) is a sorted span (no allocation, no sort),
//   - every directed edge v->w has a dense arc index in [0, 2m) usable as a
//     key into flat per-round arrays (the engines' payload budgets),
//   - sorted blocks make a round-to-round diff one byte compare per
//     unchanged node and a two-pointer merge per changed one.
//
// The sortedness falls out of the rebuild for free: scanning source nodes
// in increasing order appends each target list in increasing source order,
// so no comparison sort runs anywhere.  When g is a committed revision
// whose delta leads from the revision the snapshot holds (graph.hpp),
// rebuild() patches instead: the arcs between consecutive changes are
// copied whole.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_delta.hpp"

namespace dyngossip {

/// Sentinel for "no such arc" (arc_index of an absent edge).
inline constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);

/// Read-only CSR (offsets + sorted targets) snapshot of a Graph.
class RoundGraphView {
 public:
  /// Empty view over zero nodes; rebuild() before use.
  RoundGraphView() = default;

  /// View of g's current topology (convenience for one-shot callers; the
  /// engines construct once and rebuild per round).
  explicit RoundGraphView(const Graph& g) { rebuild(g); }

  /// Brings the snapshot to g.  When this view holds the revision g's
  /// delta leads from, it patches by the delta (patch()); when it holds
  /// g's revision, it keeps its contents; otherwise it rebuilds in
  /// O(n + m).  Reuses internal buffers — allocation-free once they have
  /// grown to the high-water mark.
  void rebuild(const Graph& g);

  /// Patches the snapshot of G_{r-1} into one of g = G_r, given the net
  /// delta between them bucketed by node, in one sequential pass
  /// (DeltaBuckets::apply): untouched blocks are copied in runs, touched
  /// ones merged with their changes, and each change's old arc recorded.
  /// Two always-on guards abort on a delta that does not apply to this
  /// snapshot or changes the wrong degrees: every node's patched degree and
  /// the edge count must equal g's (O(n), checked first), and every
  /// removed arc must have been present and every inserted arc absent.  They do not compare the patched arcs with g's (a
  /// degree-preserving swap of edges would pass); the deltas rebuild()
  /// uses come from g's own change log, and the round-ingest tests compare
  /// every patched snapshot with a fresh rebuild.  Leaves the view's
  /// revision unknown (and patched_from() 0).
  void patch(const Graph& g, DeltaBuckets& changes);

  /// Revision of the graph the snapshot holds (0: unknown).
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// The revision the last rebuild() brought the snapshot forward from
  /// without rebuilding it (0: it rebuilt).  Equal to revision() when g was
  /// unchanged; otherwise changes() holds the delta it patched by.
  [[nodiscard]] std::uint64_t patched_from() const noexcept { return patched_from_; }

  /// The last patch's delta, bucketed and located in the previous snapshot
  /// (valid while patched_from() is nonzero and differs from revision()).
  [[nodiscard]] const DeltaBuckets& changes() const noexcept { return changes_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Number of undirected edges m.
  [[nodiscard]] std::size_t num_edges() const noexcept { return targets_.size() / 2; }

  /// Number of directed arcs (2m); arc indices are dense in [0, num_arcs()).
  [[nodiscard]] std::size_t num_arcs() const noexcept { return targets_.size(); }

  /// Degree of v.
  [[nodiscard]] std::size_t degree(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Every neighbor block back to back, in arc-index order.
  [[nodiscard]] std::span<const NodeId> arc_targets() const noexcept { return targets_; }

  /// The n + 1 block offsets: arc_begin of every node, then num_arcs().
  [[nodiscard]] std::span<const std::size_t> arc_offsets() const noexcept {
    return offsets_;
  }

  /// First arc index of v's neighbor block (arc of v's i-th neighbor is
  /// arc_begin(v) + i).
  [[nodiscard]] std::size_t arc_begin(NodeId v) const {
    DG_DCHECK(v < num_nodes_);
    return offsets_[v];
  }

  /// Dense index of the directed arc v->w, or kNoArc if the edge is absent.
  /// O(log deg(v)) binary search over the sorted neighbor block.
  [[nodiscard]] std::size_t arc_index(NodeId v, NodeId w) const;

  /// Membership test (binary search on the smaller endpoint block).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    DG_DCHECK(u < num_nodes_ && v < num_nodes_);
    return degree(u) <= degree(v) ? arc_index(u, v) != kNoArc
                                  : arc_index(v, u) != kNoArc;
  }

 private:
  /// The O(n + m) scatter rebuild.
  void rebuild_full(const Graph& g);

  std::size_t num_nodes_ = 0;
  std::uint64_t revision_ = 0;
  std::uint64_t patched_from_ = 0;
  DeltaBuckets changes_;
  std::vector<std::size_t> offsets_;  ///< n + 1 prefix sums
  std::vector<NodeId> targets_;       ///< 2m targets, sorted per source
  // Scratch: the rebuild's write cursors, or the patch's next offsets and
  // targets (swapped in when the patch completes).
  std::vector<std::size_t> spare_offsets_;
  std::vector<NodeId> spare_targets_;
};

}  // namespace dyngossip
