// Tests for connectivity queries and repairs.
#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/disjoint_set.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

// Reference labelling: union-find over the edges, then labels handed out in
// node order as each root is first met (the pre-BFS implementation).
ComponentInfo union_find_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  DisjointSet dsu(n);
  g.for_each_edge([&dsu](EdgeKey key) {
    const auto [u, v] = edge_endpoints(key);
    dsu.unite(u, v);
  });
  ComponentInfo info;
  info.labels.assign(n, 0);
  std::vector<std::size_t> root_to_label(n, std::numeric_limits<std::size_t>::max());
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t root = dsu.find(v);
    if (root_to_label[root] == std::numeric_limits<std::size_t>::max()) {
      root_to_label[root] = info.count++;
      info.representatives.push_back(v);
    }
    info.labels[v] = root_to_label[root];
  }
  return info;
}

// Reference repair: per-label member vectors from the union-find labels,
// chained in shuffled order through Rng::pick (the pre-BFS implementation).
std::vector<EdgeKey> union_find_connect(Graph& g, Rng& rng) {
  std::vector<EdgeKey> added;
  const ComponentInfo info = union_find_components(g);
  if (info.count <= 1) return added;
  std::vector<std::vector<NodeId>> members(info.count);
  for (NodeId v = 0; v < g.num_nodes(); ++v) members[info.labels[v]].push_back(v);
  std::vector<std::size_t> order(info.count);
  for (std::size_t i = 0; i < info.count; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 1; i < info.count; ++i) {
    const NodeId a = rng.pick(members[order[i - 1]]);
    const NodeId b = rng.pick(members[order[i]]);
    g.add_edge(a, b);
    added.push_back(edge_key(a, b));
  }
  return added;
}

// Random graph on n nodes with about `m` edges, many components when m < n.
Graph random_sparse_graph(std::size_t n, std::size_t m, Rng& rng) {
  Graph g(n);
  if (n < 2) return g;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    auto v = static_cast<NodeId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    g.add_edge(u, v);
  }
  return g;
}

void expect_same_components(const ComponentInfo& got, const ComponentInfo& want,
                            const char* what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.labels, want.labels) << what;
  EXPECT_EQ(got.representatives, want.representatives) << what;
}

TEST(Connectivity, ComponentsOfDisconnectedGraph) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.count, 4u);  // {0,1},{2,3},{4},{5}
  EXPECT_EQ(info.labels[0], info.labels[1]);
  EXPECT_EQ(info.labels[2], info.labels[3]);
  EXPECT_NE(info.labels[0], info.labels[2]);
  EXPECT_NE(info.labels[4], info.labels[5]);
  EXPECT_EQ(info.representatives.size(), 4u);
}

TEST(Connectivity, IsConnectedCases) {
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_FALSE(is_connected(Graph(2)));
  EXPECT_TRUE(is_connected(path_graph(10)));
  Graph g = path_graph(10);
  g.remove_edge(4, 5);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, ConnectComponentsAddsMinimumEdges) {
  Rng rng(3);
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  // components: {0,1},{2,3},{4,5},{6},{7},{8} -> 6 components
  const auto added = connect_components(g, rng);
  EXPECT_EQ(added.size(), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, ConnectAlreadyConnectedIsNoop) {
  Rng rng(4);
  Graph g = cycle_graph(8);
  const std::size_t before = g.num_edges();
  EXPECT_TRUE(connect_components(g, rng).empty());
  EXPECT_EQ(g.num_edges(), before);
}

TEST(Connectivity, BfsTreeOnPath) {
  const Graph g = path_graph(5);
  const BfsTree t = bfs_tree(g, 0);
  EXPECT_EQ(t.parent[0], 0u);
  EXPECT_EQ(t.parent[3], 2u);
  EXPECT_EQ(t.depth[4], 4u);
  EXPECT_EQ(t.order.front(), 0u);
  EXPECT_EQ(t.order.size(), 5u);
}

TEST(Connectivity, BfsTreeOnStarFromLeaf) {
  const Graph g = star_graph(6, 0);
  const BfsTree t = bfs_tree(g, 5);
  EXPECT_EQ(t.depth[5], 0u);
  EXPECT_EQ(t.depth[0], 1u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(t.depth[v], 2u);
    EXPECT_EQ(t.parent[v], 0u);
  }
}

TEST(Connectivity, BfsTreeDepthsAreShortestPaths) {
  Rng rng(5);
  const Graph g = connected_erdos_renyi(40, 0.1, rng);
  const BfsTree t = bfs_tree(g, 0);
  // Every edge violates the BFS property by at most one level.
  for (const EdgeKey key : g.edges()) {
    const auto [u, v] = edge_endpoints(key);
    const auto du = static_cast<int>(t.depth[u]);
    const auto dv = static_cast<int>(t.depth[v]);
    EXPECT_LE(std::abs(du - dv), 1);
  }
}

TEST(Connectivity, CheckerMatchesUnionFindOracle) {
  Rng rng(31);
  ConnectivityChecker checker;
  RoundGraphView view;
  for (int trial = 0; trial < 40; ++trial) {
    Graph g = random_connected_with_edges(24, 40, rng);
    // Randomly delete a few edges; about half the trials disconnect.
    const std::vector<EdgeKey> edges = g.sorted_edges();
    for (int cut = 0; cut < 6; ++cut) {
      const auto [u, v] = edge_endpoints(edges[rng.next_below(edges.size())]);
      g.remove_edge(u, v);
    }
    view.rebuild(g);
    EXPECT_EQ(checker.is_connected(view), union_find_components(g).count == 1)
        << "trial " << trial;
  }
}

TEST(Connectivity, BfsLabellingMatchesUnionFind) {
  Rng rng(47);
  ConnectivityChecker checker;  // reused across graphs of changing size
  const std::size_t sizes[] = {0, 1, 2, 3, 17, 64, 130};
  for (const std::size_t n : sizes) {
    // Edge budgets from none (n isolated nodes) through many small
    // components to connected.
    for (const std::size_t m : {std::size_t{0}, n / 4, n / 2, n, 3 * n}) {
      for (int trial = 0; trial < 4; ++trial) {
        const Graph g = random_sparse_graph(n, m, rng);
        const ComponentInfo want = union_find_components(g);
        expect_same_components(checker.components(g), want, "checker");
        expect_same_components(connected_components(g), want, "free function");
        EXPECT_EQ(checker.is_connected(g), want.count <= 1);
        EXPECT_EQ(checker.is_connected(RoundGraphView(g)), want.count <= 1);
        EXPECT_EQ(is_connected(g), want.count <= 1);
      }
    }
  }
}

TEST(Connectivity, MembersAreSortedComponentSlices) {
  Rng rng(48);
  ConnectivityChecker checker;
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_sparse_graph(50, 30, rng);
    const ComponentInfo& info = checker.components(g);
    ASSERT_GT(info.count, 1u);
    std::size_t total = 0;
    for (std::size_t c = 0; c < info.count; ++c) {
      const std::span<const NodeId> m = checker.members(c);
      ASSERT_FALSE(m.empty());
      EXPECT_EQ(m.front(), info.representatives[c]);
      EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
      for (const NodeId v : m) EXPECT_EQ(info.labels[v], c);
      total += m.size();
    }
    EXPECT_EQ(total, g.num_nodes());
  }
}

TEST(Connectivity, RepairMatchesUnionFindDraws) {
  // Same labels and members mean the same RNG draws and the same edges.
  Rng gen(49);
  ConnectivityChecker checker;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + gen.next_below(80);
    const Graph base = random_sparse_graph(n, gen.next_below(2 * n), gen);
    const std::uint64_t seed = gen.next();
    Graph want_g = base;
    Rng want_rng(seed);
    const std::vector<EdgeKey> want = union_find_connect(want_g, want_rng);
    Graph got_g = base;
    Rng got_rng(seed);
    const std::span<const EdgeKey> got = checker.connect(got_g, got_rng);
    EXPECT_EQ(std::vector<EdgeKey>(got.begin(), got.end()), want) << "trial " << trial;
    EXPECT_EQ(got_g.sorted_edges(), want_g.sorted_edges());
    EXPECT_EQ(got_rng.next(), want_rng.next()) << "rng streams diverged";
    EXPECT_TRUE(checker.is_connected(got_g));
  }
}

TEST(Connectivity, CheckerTrivialCases) {
  ConnectivityChecker checker;
  EXPECT_TRUE(checker.is_connected(RoundGraphView(Graph(0))));
  EXPECT_TRUE(checker.is_connected(RoundGraphView(Graph(1))));
  EXPECT_FALSE(checker.is_connected(RoundGraphView(Graph(2))));
}

}  // namespace
}  // namespace dyngossip
