#include "graph/dynamic_tracker.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace dyngossip {

DynamicGraphTracker::DynamicGraphTracker(std::size_t n) : n_(n) {
  live_.offsets.assign(n + 1, 0);  // G_0 = ∅: every block empty
}

GraphDiff DynamicGraphTracker::advance(const Graph& g, Round r) {
  DG_CHECK(g.num_nodes() == n_);
  view_.rebuild(g);
  return advance(view_, r);  // copy: the public Graph-based contract returns by value
}

const GraphDiff& DynamicGraphTracker::advance(const RoundGraphView& view, Round r) {
  DG_CHECK(view.num_nodes() == n_);
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  diff_.inserted.clear();
  diff_.removed.clear();
  if (revision_ != 0 && view.patched_from() == revision_) {
    advance_delta(view, r);
  } else {
    advance_blocks(view, r);
  }
  revision_ = view.revision();
  return diff_;
}

void DynamicGraphTracker::begin_advance(const RoundGraphView& view) {
  next_.offsets.assign(view.arc_offsets().begin(), view.arc_offsets().end());
  next_.targets.assign(view.arc_targets().begin(), view.arc_targets().end());
  next_.inserted.resize(view.num_arcs());
}

void DynamicGraphTracker::advance_blocks(const RoundGraphView& view, Round r) {
  begin_advance(view);
  for (NodeId u = 0; u < n_; ++u) {
    const std::span<const NodeId> now = view.neighbors(u);
    const std::size_t old_begin = live_.offsets[u];
    const std::size_t old_len = live_.offsets[u + 1] - old_begin;
    const NodeId* old_targets = live_.targets.data() + old_begin;
    const Round* old_rounds = live_.inserted.data() + old_begin;
    Round* rounds = next_.inserted.data() + next_.offsets[u];

    // An unchanged block keeps every insertion round.
    if (now.size() == old_len && std::equal(now.begin(), now.end(), old_targets)) {
      std::copy(old_rounds, old_rounds + old_len, rounds);
      continue;
    }
    // Two-pointer merge of the old and new sorted blocks.  Each edge {u, w}
    // appears in both endpoints' blocks; only u's side (u < w) reports it,
    // so walking u upward emits both lists in canonical EdgeKey order.
    std::size_t i = 0;  // over the old block
    std::size_t j = 0;  // over the new block
    while (i < old_len || j < now.size()) {
      if (j == now.size() || (i < old_len && old_targets[i] < now[j])) {
        if (u < old_targets[i]) {
          const Round lifetime = r - old_rounds[i];  // present [inserted, r-1]
          min_lifetime_ = std::min(min_lifetime_, lifetime);
          diff_.removed.push_back(edge_key(u, old_targets[i]));
          ++deletions_;
        }
        ++i;
      } else if (i == old_len || now[j] < old_targets[i]) {
        rounds[j] = r;
        if (u < now[j]) {
          diff_.inserted.push_back(edge_key(u, now[j]));
          ++tc_;
        }
        ++j;
      } else {
        rounds[j] = old_rounds[i];
        ++i;
        ++j;
      }
    }
  }
  std::swap(live_, next_);
}

void DynamicGraphTracker::advance_delta(const RoundGraphView& view, Round r) {
  if (view.patched_from() == view.revision()) return;  // unchanged graph
  const DeltaBuckets& changes = view.changes();
  const RoundDelta& delta = changes.delta();
  DG_CHECK(changes.base_arcs() == live_.targets.size());
  begin_advance(view);
  diff_.inserted.assign(delta.inserted.begin(), delta.inserted.end());
  diff_.removed.assign(delta.removed.begin(), delta.removed.end());
  tc_ += delta.inserted.size();
  deletions_ += delta.removed.size();
  // The snapshot's patch pass, applied to the insertion rounds: copy the
  // rounds up to each change, stamp an inserted arc with r, and close a
  // removed arc's lifetime (both of its arcs carry the same round).
  const Round* const old = live_.inserted.data();
  Round* out = next_.inserted.data();
  std::size_t from = 0;
  for (const DeltaBuckets::Change& c : changes.all()) {
    out = std::copy(old + from, old + c.old_arc, out);
    if (c.inserted != 0) {
      *out++ = r;
      from = c.old_arc;
    } else {
      min_lifetime_ = std::min(min_lifetime_, r - old[c.old_arc]);  // [inserted, r-1]
      from = c.old_arc + 1;
    }
  }
  std::copy(old + from, old + live_.inserted.size(), out);
  std::swap(live_, next_);
}

Round DynamicGraphTracker::insertion_round(EdgeKey key) const {
  const auto [u, w] = edge_endpoints(key);
  if (u >= w || w >= n_) return kNoRound;
  const auto first = live_.targets.begin() + static_cast<std::ptrdiff_t>(live_.offsets[u]);
  const auto last = live_.targets.begin() + static_cast<std::ptrdiff_t>(live_.offsets[u + 1]);
  const auto it = std::lower_bound(first, last, w);
  if (it == last || *it != w) return kNoRound;
  return live_.inserted[static_cast<std::size_t>(it - live_.targets.begin())];
}

}  // namespace dyngossip
