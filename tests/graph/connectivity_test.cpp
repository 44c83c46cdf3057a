// Tests for connectivity queries and repairs.
#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
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

// Nodes dealt at random into `groups` components (ids interleaved), each a
// random tree plus `extra` random intra-group edges overall.
Graph random_forest(std::size_t n, std::size_t groups, std::size_t extra, Rng& rng) {
  Graph g(n);
  std::vector<std::vector<NodeId>> members(groups);
  for (NodeId v = 0; v < n; ++v) members[rng.next_below(groups)].push_back(v);
  for (std::vector<NodeId>& m : members) {
    rng.shuffle(m);
    for (std::size_t i = 1; i < m.size(); ++i) g.add_edge(m[i], m[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const std::vector<NodeId>& m = members[rng.next_below(groups)];
    if (m.size() < 2) continue;
    const NodeId a = rng.pick(m);
    const NodeId b = rng.pick(m);
    if (a != b) g.add_edge(a, b);
  }
  return g;
}

// The checker's labelling of both graph forms, and the free functions
// against the union-find oracle: count, labels, representatives, and (when
// disconnected) every member slice against the oracle's node-ordered
// member lists.
void expect_matches_oracle(ConnectivityChecker& checker, const Graph& g,
                           const std::string& what) {
  const ComponentInfo want = union_find_components(g);
  std::vector<std::vector<NodeId>> want_members(want.count);
  for (NodeId v = 0; v < g.num_nodes(); ++v) want_members[want.labels[v]].push_back(v);
  const RoundGraphView view(g);
  for (const bool csr : {false, true}) {
    const ComponentInfo& got = csr ? checker.components(view) : checker.components(g);
    const std::string form = what + (csr ? " (csr)" : " (graph)");
    expect_same_components(got, want, form.c_str());
    if (want.count <= 1) continue;
    for (std::size_t c = 0; c < want.count; ++c) {
      const std::span<const NodeId> m = checker.members(c);
      EXPECT_EQ(std::vector<NodeId>(m.begin(), m.end()), want_members[c])
          << form << " label " << c;
    }
  }
  EXPECT_EQ(checker.is_connected(g), want.count <= 1) << what;
  EXPECT_EQ(checker.is_connected(view), want.count <= 1) << what;
  const std::string free_fn = what + " (free function)";
  expect_same_components(connected_components(g), want, free_fn.c_str());
  EXPECT_EQ(is_connected(g), want.count <= 1) << what;
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
        expect_matches_oracle(checker, random_sparse_graph(n, m, rng),
                              "n=" + std::to_string(n) + " m=" + std::to_string(m));
      }
    }
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

// The shapes where the walk stops early or sweeps its last nodes bottom-up
// (n <= 2 is covered above).  The checker is reused throughout, so labels
// left over from a disconnected graph would show on the next connected one.
TEST(Connectivity, EarlyExitLabellingMatchesUnionFindOracle) {
  Rng rng(50);
  ConnectivityChecker checker;
  const std::size_t sizes[] = {3, 17, 96, 257};
  for (const std::size_t n : sizes) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::string at =
          " n=" + std::to_string(n) + " trial " + std::to_string(trial);
      expect_matches_oracle(checker, random_tree(n, rng), "tree" + at);
      // The cutter's 3n-edge and the frontier's 8n-edge round shapes.
      expect_matches_oracle(checker, random_connected_with_edges(n, 3 * n, rng),
                            "3n edges" + at);
      expect_matches_oracle(checker, random_connected_with_edges(n, 8 * n, rng),
                            "8n edges" + at);
      // The last node isolated: the walk over everything else never fills
      // the queue, and node n-1 is its own last component.
      Graph isolated(n);
      random_tree(n - 1, rng).for_each_edge([&isolated](EdgeKey key) {
        const auto [u, v] = edge_endpoints(key);
        isolated.add_edge(u, v);
      });
      expect_matches_oracle(checker, isolated, "isolated last node" + at);
      // Interleaved components: the last one found fills the queue with
      // nodes still waiting to be scanned.
      expect_matches_oracle(checker, random_forest(n, 2, n, rng), "two components" + at);
      expect_matches_oracle(checker, random_forest(n, 1 + rng.next_below(n), n / 2, rng),
                            "many components" + at);
    }
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
