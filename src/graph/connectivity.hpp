// Connectivity queries and repairs on round graphs.
//
// The model requires every round graph G_r (r >= 1) to be connected; the
// engines verify that property every round and the randomized adversaries
// restore it with these helpers.  The static baseline uses BFS trees for its
// spanning-tree dissemination stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// Component labelling of a graph.
struct ComponentInfo {
  /// labels[v] in [0, count) identifies v's component.
  std::vector<std::size_t> labels;
  /// Number of connected components.
  std::size_t count = 0;
  /// One representative node per component, indexed by label.
  std::vector<NodeId> representatives;
};

/// Component labelling by BFS from the lowest unlabelled node: labels are
/// numbered in order of each component's lowest node, which is also its
/// representative (the labelling a union-find pass in node order yields).
[[nodiscard]] ComponentInfo connected_components(const Graph& g);

/// True iff g is connected (vacuously true for n <= 1).
[[nodiscard]] bool is_connected(const Graph& g);

/// Reusable-buffer connectivity queries and repair for the per-round paths:
/// BFS over either graph form, allocation-free once the buffers have grown
/// to the node count.  Each engine checks its CSR snapshot with one every
/// round (the model requires every G_r to be connected); the incremental
/// adversaries label and repair their working Graph with one.  On a
/// connected graph every call is one O(n + m) walk with no RNG draw.
class ConnectivityChecker {
 public:
  /// True iff the snapshot's graph is connected (vacuously true, n <= 1).
  [[nodiscard]] bool is_connected(const RoundGraphView& view);

  /// True iff g is connected (vacuously true, n <= 1).
  [[nodiscard]] bool is_connected(const Graph& g);

  /// connected_components(g) into reused storage, valid until the next call.
  [[nodiscard]] const ComponentInfo& components(const Graph& g);

  /// The same labelling of the snapshot's graph (the engines' per-round
  /// check: `count` > 1 means disconnected).
  [[nodiscard]] const ComponentInfo& components(const RoundGraphView& view);

  /// Members of component `label` in increasing node order, as of the last
  /// call.  Grouped only when that call found more than one component (the
  /// repair paths stop at one).
  [[nodiscard]] std::span<const NodeId> members(std::size_t label) const;

  /// connect_components(g, rng) with reused buffers; the returned span holds
  /// the added edges until the next call.
  std::span<const EdgeKey> connect(Graph& g, Rng& rng);

 private:
  template <typename G>
  const ComponentInfo& label(const G& g);

  ComponentInfo info_;
  /// BFS queue; after label() it holds the components back to back.
  std::vector<NodeId> queue_;
  std::vector<std::size_t> member_begin_;  ///< per-label offsets into queue_
  std::vector<std::size_t> order_;         ///< connect(): shuffled labels
  std::vector<EdgeKey> added_;             ///< connect(): the added edges
};

/// Adds the minimum number of edges (#components - 1) to make g connected.
/// Components are joined in a chain over uniformly random representatives so
/// repeated repairs do not bias the topology.  Returns the added edges.
std::vector<EdgeKey> connect_components(Graph& g, Rng& rng);

/// BFS spanning tree rooted at `root`.
struct BfsTree {
  /// parent[v]; parent[root] == root; kNoNode for unreachable nodes.
  std::vector<NodeId> parent;
  /// BFS depth; 0 for the root; unreachable nodes have kNoRound-like max.
  std::vector<std::uint32_t> depth;
  /// Nodes in BFS visit order (root first).
  std::vector<NodeId> order;
};

/// Computes a BFS tree (deterministic: neighbors scanned in sorted order,
/// served by a CSR snapshot rather than per-node sorts).
[[nodiscard]] BfsTree bfs_tree(const Graph& g, NodeId root);

/// BFS tree off an existing snapshot (avoids the O(n + m) rebuild when the
/// caller already holds one).
[[nodiscard]] BfsTree bfs_tree(const RoundGraphView& view, NodeId root);

}  // namespace dyngossip
