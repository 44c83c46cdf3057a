// Round-graph representation.
//
// The dynamic network model (Section 1.3) is a sequence G_r = (V, E_r) of
// undirected graphs over a fixed node set V.  A Graph object is one round's
// topology: adjacency lists supporting the operations the engines and
// adversaries need — membership tests, degree queries, neighbor iteration,
// and edge-set mutation while an adversary constructs the round.
//
// Storage is adjacency lists only (no hash set): the graphs the paper's
// experiments run are sparse (|E_r| = O(n)), so membership is a short scan
// of the smaller endpoint list, and dropping the per-edge hash nodes makes
// copies and per-round mutation allocation-light.  The read-optimized
// per-round snapshot is RoundGraphView (round_view.hpp).
//
// A graph also keeps a change log for the round consumers.  commit() names
// the current edge set with a process-unique revision; the add_edge and
// remove_edge calls that succeed after it are journaled, and the next
// commit() turns them into the net delta between the two revisions.  An
// incremental adversary commits its working graph once per round, and the
// engines then patch their snapshot by that delta instead of rebuilding it
// (graph/round_ingest.hpp).  The delta is derived from the graph's own
// mutations, so no caller can report one that differs from them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/round_delta.hpp"

namespace dyngossip {

/// Undirected simple graph over nodes [0, n).
class Graph {
 public:
  /// Empty graph (the model's G_0).
  explicit Graph(std::size_t n = 0);

  /// Graph with the given edges; duplicates are ignored.
  Graph(std::size_t n, const std::vector<EdgeKey>& edges);

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return adjacency_.size(); }

  /// Number of edges m_r.
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds the undirected edge {u, v}; returns true iff it was absent.
  /// Requires u != v and both < n.
  bool add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}; returns true iff it was present.
  bool remove_edge(NodeId u, NodeId v);

  /// Membership test (scan of the smaller endpoint's adjacency list);
  /// false for out-of-range endpoints.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Degree of v in this round.
  [[nodiscard]] std::size_t degree(NodeId v) const {
    DG_DCHECK(v < adjacency_.size());
    return adjacency_[v].size();
  }

  /// Neighbors of v (unsorted; order is insertion order).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    DG_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  /// Neighbors of v sorted ascending (the unicast model hands each node the
  /// IDs of its round-r neighbors; a canonical order keeps runs
  /// deterministic).  Allocates; the per-round engines read sorted spans off
  /// a RoundGraphView instead.
  [[nodiscard]] std::vector<NodeId> sorted_neighbors(NodeId v) const;

  /// Visits every edge once as a canonical key, grouped by the lower
  /// endpoint in increasing order (within a node, insertion order).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (NodeId u = 0; u < adjacency_.size(); ++u) {
      for (const NodeId v : adjacency_[u]) {
        if (v > u) fn(edge_key(u, v));
      }
    }
  }

  /// All edges as canonical keys, unsorted (lower-endpoint grouped).
  [[nodiscard]] std::vector<EdgeKey> edges() const;

  /// All edges as a sorted vector (deterministic iteration for tests).
  [[nodiscard]] std::vector<EdgeKey> sorted_edges() const;

  /// Ends a round of mutation: the current edge set becomes a new revision.
  /// If the graph was at a revision when the mutations since began, their
  /// net effect becomes delta(), leading from delta_base(); otherwise (never
  /// committed, or too many changes to be worth journaling) there is no
  /// delta.  A graph not mutated since its last commit keeps its revision
  /// and delta.
  void commit();

  /// Process-unique id of the committed edge set; 0 if the graph was never
  /// committed or was mutated since.  A copy has the same edge set and so
  /// keeps the revision and delta; a move carries them over and leaves the
  /// source at 0.
  [[nodiscard]] std::uint64_t revision() const noexcept { return log_.revision; }

  /// Revision that delta() leads from to revision(); 0 when there is none.
  [[nodiscard]] std::uint64_t delta_base() const noexcept { return log_.base; }

  /// Net change of the last commit: E⁺ = E \ E_base, E⁻ = E_base \ E.
  [[nodiscard]] const RoundDelta& delta() const noexcept { return log_.delta; }

 private:
  /// Revisions, the last commit's delta, and the journal since.
  struct ChangeLog {
    std::uint64_t revision = 0;   ///< committed edge set (0: none)
    std::uint64_t base = 0;       ///< revision `delta` leads from (0: none)
    RoundDelta delta;             ///< net change of the last commit
    std::uint64_t open = 0;       ///< revision the journal leads from (0: off)
    std::vector<EdgeKey> added;   ///< successful add_edge keys since, gross
    std::vector<EdgeKey> cut;     ///< successful remove_edge keys since, gross

    ChangeLog() = default;
    ChangeLog(const ChangeLog& other) = default;
    ChangeLog& operator=(const ChangeLog& other) = default;
    ChangeLog(ChangeLog&& other) noexcept;
    ChangeLog& operator=(ChangeLog&& other) noexcept;
    ~ChangeLog() = default;
    void reset() noexcept;
  };

  /// Journals one successful mutation (no-op while nothing is tracked).
  void journal(EdgeKey key, bool added) {
    if (log_.revision != 0 || log_.open != 0) journal_slow(key, added);
  }
  void journal_slow(EdgeKey key, bool added);

  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t num_edges_ = 0;
  ChangeLog log_;
};

}  // namespace dyngossip
