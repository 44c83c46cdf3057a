// Tests for the CSR round snapshot (RoundGraphView): agreement with the
// mutable Graph, arc indexing, canonical edge order, and buffer reuse
// across rebuilds.
#include "graph/round_view.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

TEST(RoundGraphView, EmptyGraph) {
  RoundGraphView view{Graph(0)};
  EXPECT_EQ(view.num_nodes(), 0u);
  EXPECT_EQ(view.num_edges(), 0u);
  EXPECT_EQ(view.num_arcs(), 0u);
}

TEST(RoundGraphView, EdgelessGraph) {
  RoundGraphView view{Graph(5)};
  EXPECT_EQ(view.num_nodes(), 5u);
  EXPECT_EQ(view.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(view.degree(v), 0u);
    EXPECT_TRUE(view.neighbors(v).empty());
  }
}

TEST(RoundGraphView, NeighborsAreSortedAndMatchGraph) {
  Rng rng(42);
  const Graph g = random_connected_with_edges(64, 200, rng);
  const RoundGraphView view(g);
  ASSERT_EQ(view.num_nodes(), g.num_nodes());
  ASSERT_EQ(view.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const NodeId> got = view.neighbors(v);
    const std::vector<NodeId> want = g.sorted_neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << "node " << v;
    EXPECT_EQ(view.degree(v), g.degree(v));
  }
}

TEST(RoundGraphView, ArcIndexIsDenseAndInvertible) {
  Rng rng(7);
  const Graph g = random_connected_with_edges(32, 96, rng);
  const RoundGraphView view(g);
  std::vector<bool> seen(view.num_arcs(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const NodeId> neigh = view.neighbors(v);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const std::size_t arc = view.arc_index(v, neigh[i]);
      ASSERT_NE(arc, kNoArc);
      EXPECT_EQ(arc, view.arc_begin(v) + i);
      ASSERT_LT(arc, view.num_arcs());
      EXPECT_FALSE(seen[arc]) << "arc index not dense";
      seen[arc] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(RoundGraphView, ArcIndexOfAbsentEdgeIsNoArc) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const RoundGraphView view(g);
  EXPECT_EQ(view.arc_index(0, 2), kNoArc);
  EXPECT_EQ(view.arc_index(1, 3), kNoArc);
  EXPECT_NE(view.arc_index(0, 1), kNoArc);
  EXPECT_NE(view.arc_index(1, 0), kNoArc);
  EXPECT_TRUE(view.has_edge(0, 1));
  EXPECT_TRUE(view.has_edge(3, 2));
  EXPECT_FALSE(view.has_edge(0, 3));
}

TEST(RoundGraphView, ArcTargetsAreTheBlocksBackToBack) {
  Rng rng(11);
  const Graph g = random_connected_with_edges(48, 140, rng);
  const RoundGraphView view(g);
  std::vector<NodeId> blocks;
  for (NodeId v = 0; v < 48; ++v) {
    const std::span<const NodeId> neigh = view.neighbors(v);
    blocks.insert(blocks.end(), neigh.begin(), neigh.end());
  }
  const std::span<const NodeId> arcs = view.arc_targets();
  EXPECT_EQ(std::vector<NodeId>(arcs.begin(), arcs.end()), blocks);
  EXPECT_EQ(arcs.size(), view.num_arcs());
}

TEST(RoundGraphView, RebuildTracksMutationsAndReusesBuffers) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  RoundGraphView view(g);
  EXPECT_EQ(view.num_edges(), 2u);

  g.add_edge(3, 4);
  g.remove_edge(0, 1);
  view.rebuild(g);
  EXPECT_EQ(view.num_edges(), 2u);
  EXPECT_EQ(view.arc_index(0, 1), kNoArc);
  EXPECT_NE(view.arc_index(3, 4), kNoArc);

  // Shrinking works too (stale state must not leak through).
  view.rebuild(Graph(3));
  EXPECT_EQ(view.num_nodes(), 3u);
  EXPECT_EQ(view.num_edges(), 0u);
}

TEST(RoundGraphView, StarGraphShape) {
  const Graph g = star_graph(5, 2);
  const RoundGraphView view(g);
  EXPECT_EQ(view.degree(2), 4u);
  const std::span<const NodeId> hub = view.neighbors(2);
  const std::vector<NodeId> want{0, 1, 3, 4};
  EXPECT_TRUE(std::equal(hub.begin(), hub.end(), want.begin()));
  for (const NodeId leaf : want) {
    ASSERT_EQ(view.degree(leaf), 1u);
    EXPECT_EQ(view.neighbors(leaf)[0], 2u);
  }
}

}  // namespace
}  // namespace dyngossip
