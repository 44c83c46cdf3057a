#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace dyngossip {

namespace {

/// Source of revision ids: process-wide, so that two graphs share a
/// revision only as copies of one committed edge set.
std::atomic<std::uint64_t> g_next_revision{1};

/// Swap-removes `x` from `list`; returns true iff it was present.
bool drop_from(std::vector<NodeId>& list, NodeId x) {
  const auto it = std::find(list.begin(), list.end(), x);
  if (it == list.end()) return false;
  *it = list.back();
  list.pop_back();
  return true;
}

}  // namespace

Graph::Graph(std::size_t n) : adjacency_(n) {}

Graph::Graph(std::size_t n, const std::vector<EdgeKey>& edges) : adjacency_(n) {
  for (const EdgeKey key : edges) {
    const auto [u, v] = edge_endpoints(key);
    add_edge(u, v);
  }
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  const std::vector<NodeId>& su =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  const NodeId other = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(su.begin(), su.end(), other) != su.end();
}

bool Graph::add_edge(NodeId u, NodeId v) {
  DG_CHECK(u != v);
  DG_CHECK(u < adjacency_.size() && v < adjacency_.size());
  if (has_edge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  journal(edge_key(u, v), true);
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  if (!drop_from(adjacency_[u], v)) return false;
  const bool dropped = drop_from(adjacency_[v], u);
  DG_CHECK(dropped);
  --num_edges_;
  journal(edge_key(u, v), false);
  return true;
}

std::vector<NodeId> Graph::sorted_neighbors(NodeId v) const {
  std::vector<NodeId> out(adjacency_[v].begin(), adjacency_[v].end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeKey> Graph::edges() const {
  std::vector<EdgeKey> out;
  out.reserve(num_edges_);
  for_each_edge([&out](EdgeKey key) { out.push_back(key); });
  return out;
}

std::vector<EdgeKey> Graph::sorted_edges() const {
  std::vector<EdgeKey> out = edges();
  std::sort(out.begin(), out.end());
  return out;
}

void Graph::journal_slow(EdgeKey key, bool added) {
  if (log_.revision != 0) {  // first mutation since a commit: open a journal
    log_.open = log_.revision;
    log_.revision = 0;
    log_.added.clear();
    log_.cut.clear();
  }
  if (log_.open == 0) return;
  (added ? log_.added : log_.cut).push_back(key);
  // Past twice the graph's size a journal's delta would cost more to apply
  // than a rebuild: drop it, so its memory stays O(n + m).
  if (log_.added.size() + log_.cut.size() > 2 * (num_edges_ + adjacency_.size())) {
    log_.open = 0;
    log_.added.clear();
    log_.cut.clear();
  }
}

void Graph::commit() {
  if (log_.revision != 0) return;  // unchanged since the last commit
  log_.base = log_.open;
  log_.delta.inserted.clear();
  log_.delta.removed.clear();
  if (log_.open != 0) {
    std::sort(log_.added.begin(), log_.added.end());
    std::sort(log_.cut.begin(), log_.cut.end());
    log_.delta.set_net(log_.added, log_.cut);
  }
  log_.open = 0;
  log_.added.clear();
  log_.cut.clear();
  log_.revision = g_next_revision.fetch_add(1, std::memory_order_relaxed);
}

void Graph::ChangeLog::reset() noexcept {
  revision = 0;
  base = 0;
  delta.inserted.clear();
  delta.removed.clear();
  open = 0;
  added.clear();
  cut.clear();
}

Graph::ChangeLog::ChangeLog(ChangeLog&& other) noexcept
    : revision(std::exchange(other.revision, 0)),
      base(std::exchange(other.base, 0)),
      delta(std::move(other.delta)),
      open(std::exchange(other.open, 0)),
      added(std::move(other.added)),
      cut(std::move(other.cut)) {
  other.reset();
}

Graph::ChangeLog& Graph::ChangeLog::operator=(ChangeLog&& other) noexcept {
  if (this == &other) return *this;
  revision = std::exchange(other.revision, 0);
  base = std::exchange(other.base, 0);
  delta = std::move(other.delta);
  open = std::exchange(other.open, 0);
  added = std::move(other.added);
  cut = std::move(other.cut);
  other.reset();
  return *this;
}

}  // namespace dyngossip
