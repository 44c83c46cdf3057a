#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>

namespace dyngossip {

namespace {

constexpr std::size_t kUnlabelled = std::numeric_limits<std::size_t>::max();

}  // namespace

template <typename G>
const ComponentInfo& ConnectivityChecker::label(const G& g) {
  const std::size_t n = g.num_nodes();
  info_.labels.assign(n, kUnlabelled);
  info_.representatives.clear();
  info_.count = 0;
  member_begin_.clear();
  queue_.clear();
  queue_.reserve(n);
  for (NodeId root = 0; root < n; ++root) {
    if (info_.labels[root] != kUnlabelled) continue;
    const std::size_t c = info_.count++;
    info_.representatives.push_back(root);
    member_begin_.push_back(queue_.size());
    info_.labels[root] = c;
    queue_.push_back(root);
    // queue_ doubles as the BFS queue: elements are appended and consumed
    // by index, never erased, so each component stays one contiguous slice.
    for (std::size_t head = member_begin_.back(); head < queue_.size(); ++head) {
      for (const NodeId w : g.neighbors(queue_[head])) {
        if (info_.labels[w] == kUnlabelled) {
          info_.labels[w] = c;
          queue_.push_back(w);
        }
      }
    }
  }
  member_begin_.push_back(n);
  if (info_.count > 1) {
    for (std::size_t c = 0; c < info_.count; ++c) {
      std::sort(queue_.begin() + static_cast<std::ptrdiff_t>(member_begin_[c]),
                queue_.begin() + static_cast<std::ptrdiff_t>(member_begin_[c + 1]));
    }
  }
  return info_;
}

bool ConnectivityChecker::is_connected(const RoundGraphView& view) {
  return label(view).count <= 1;
}

bool ConnectivityChecker::is_connected(const Graph& g) {
  return label(g).count <= 1;
}

const ComponentInfo& ConnectivityChecker::components(const Graph& g) {
  return label(g);
}

const ComponentInfo& ConnectivityChecker::components(const RoundGraphView& view) {
  return label(view);
}

std::span<const NodeId> ConnectivityChecker::members(std::size_t label) const {
  DG_DCHECK(info_.count > 1 && label < info_.count);
  return std::span<const NodeId>(queue_).subspan(
      member_begin_[label], member_begin_[label + 1] - member_begin_[label]);
}

std::span<const EdgeKey> ConnectivityChecker::connect(Graph& g, Rng& rng) {
  added_.clear();
  const std::size_t count = components(g).count;
  if (count <= 1) return added_;

  // Join consecutive components in a random order through uniformly random
  // member pairs.
  order_.resize(count);
  for (std::size_t i = 0; i < count; ++i) order_[i] = i;
  rng.shuffle(order_);
  for (std::size_t i = 1; i < count; ++i) {
    const NodeId a = rng.pick(members(order_[i - 1]));
    const NodeId b = rng.pick(members(order_[i]));
    const bool fresh = g.add_edge(a, b);
    DG_CHECK(fresh);
    added_.push_back(edge_key(a, b));
  }
  return added_;
}

ComponentInfo connected_components(const Graph& g) {
  ConnectivityChecker checker;
  return checker.components(g);
}

bool is_connected(const Graph& g) {
  ConnectivityChecker checker;
  return checker.is_connected(g);
}

std::vector<EdgeKey> connect_components(Graph& g, Rng& rng) {
  ConnectivityChecker checker;
  const std::span<const EdgeKey> added = checker.connect(g, rng);
  return {added.begin(), added.end()};
}

BfsTree bfs_tree(const Graph& g, NodeId root) {
  return bfs_tree(RoundGraphView(g), root);
}

BfsTree bfs_tree(const RoundGraphView& view, NodeId root) {
  const std::size_t n = view.num_nodes();
  DG_CHECK(root < n);
  BfsTree tree;
  tree.parent.assign(n, kNoNode);
  tree.depth.assign(n, std::numeric_limits<std::uint32_t>::max());
  tree.order.reserve(n);

  tree.parent[root] = root;
  tree.depth[root] = 0;
  tree.order.push_back(root);
  // tree.order doubles as the BFS queue (append-only, consumed by index).
  for (std::size_t head = 0; head < tree.order.size(); ++head) {
    const NodeId v = tree.order[head];
    for (const NodeId w : view.neighbors(v)) {
      if (tree.parent[w] == kNoNode) {
        tree.parent[w] = v;
        tree.depth[w] = tree.depth[v] + 1;
        tree.order.push_back(w);
      }
    }
  }
  return tree;
}

}  // namespace dyngossip
