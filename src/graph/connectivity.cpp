#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>

namespace dyngossip {

namespace {

/// label() finishes a walk bottom-up once at most n / kSweepDivisor nodes
/// are unseen.  Over 64-round churn schedules at n = 512..4096 with 3n..8n
/// edges, 8 was the fastest of {4, 8, 16, 32} or within 10% of it, and the
/// walk without the sweep read 2-4x the arcs.
constexpr std::size_t kSweepDivisor = 8;

}  // namespace

template <typename G>
const ComponentInfo& ConnectivityChecker::label(const G& g) {
  const std::size_t n = g.num_nodes();
  info_.representatives.clear();
  member_begin_.clear();
  seen_.assign(n, 0);
  // queue_ doubles as the BFS queue: elements are appended and consumed by
  // index, never erased, so each component stays one contiguous slice.  The
  // append is branch-free: every neighbor is written at the tail, which
  // advances only past unseen ones.  Once all n nodes are queued the writes
  // land in the one spare slot, and the walk stops: the arcs of the nodes
  // still waiting in the queue cannot reach an unseen node, so every slice
  // is already complete.
  queue_.resize(n + 1);
  std::size_t tail = 0;
  bool swept = false;
  for (NodeId root = 0; tail < n; ++root) {
    if (seen_[root] != 0) continue;
    info_.representatives.push_back(root);
    member_begin_.push_back(tail);
    seen_[root] = 1;
    queue_[tail++] = root;
    std::size_t head = member_begin_.back();
    while (head < tail && tail < n) {
      if (!swept && kSweepDivisor * (n - tail) <= n) {
        // Few nodes are left unseen: give each one a look for a seen
        // neighbor instead of scanning the arcs of every queued node.  A
        // finished component has no unseen neighbor, so a seen neighbor is
        // in this component, and so is the node.  The queued nodes are
        // dropped from the walk, since the sweep found each of their unseen
        // neighbors; the walk resumes from the nodes it found, which reach
        // the rest.  Once per call, so the sweep adds at most O(n + m).
        swept = true;
        head = tail;
        for (NodeId v = root + 1; v < n && tail < n; ++v) {
          if (seen_[v] != 0) continue;
          for (const NodeId w : g.neighbors(v)) {
            if (seen_[w] != 0) {
              seen_[v] = 1;
              queue_[tail++] = v;
              break;
            }
          }
        }
        continue;
      }
      for (const NodeId w : g.neighbors(queue_[head++])) {
        queue_[tail] = w;
        tail += seen_[w] ^ 1u;
        seen_[w] = 1;
      }
    }
  }
  info_.count = info_.representatives.size();
  member_begin_.push_back(n);
  if (info_.count <= 1) {
    info_.labels.assign(n, 0);
    return info_;
  }
  info_.labels.resize(n);
  for (std::size_t c = 0; c < info_.count; ++c) {
    for (std::size_t i = member_begin_[c]; i < member_begin_[c + 1]; ++i) {
      info_.labels[queue_[i]] = c;
    }
    std::sort(queue_.begin() + static_cast<std::ptrdiff_t>(member_begin_[c]),
              queue_.begin() + static_cast<std::ptrdiff_t>(member_begin_[c + 1]));
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
