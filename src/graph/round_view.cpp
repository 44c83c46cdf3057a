#include "graph/round_view.hpp"

#include <algorithm>

namespace dyngossip {

void RoundGraphView::rebuild(const Graph& g) {
  const std::uint64_t held = revision_;
  patched_from_ = 0;
  if (held != 0 && g.num_nodes() == num_nodes_) {
    if (g.revision() == held) {
      patched_from_ = held;
      return;
    }
    if (g.revision() != 0 && g.delta_base() == held) {
      changes_.build(g.delta(), num_nodes_);
      patch(g, changes_);
      patched_from_ = held;
      revision_ = g.revision();
      return;
    }
  }
  rebuild_full(g);
  revision_ = g.revision();
}

void RoundGraphView::rebuild_full(const Graph& g) {
  const std::size_t n = g.num_nodes();
  num_nodes_ = n;
  offsets_.resize(n + 1);
  spare_offsets_.resize(n + 1);
  targets_.resize(2 * g.num_edges());

  offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + g.degree(v);
  DG_CHECK(offsets_[n] == targets_.size());

  // Append each arc u->w to w's block while scanning sources u in increasing
  // order: every block receives its targets pre-sorted.
  std::copy(offsets_.begin(), offsets_.end(), spare_offsets_.begin());
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId w : g.neighbors(u)) {
      targets_[spare_offsets_[w]++] = u;
    }
  }
}

void RoundGraphView::patch(const Graph& g, DeltaBuckets& changes) {
  const std::size_t n = num_nodes_;
  DG_CHECK(g.num_nodes() == n);
  const std::span<const std::int32_t> shift = changes.degree_shift();
  DG_CHECK(shift.size() == n);

  // Next offsets from g's degrees; every node's old degree plus its net
  // change must be its degree in g.
  spare_offsets_.resize(n + 1);
  spare_offsets_[0] = 0;
  bool degrees_match = true;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t degree = g.degree(v);
    const std::size_t expect =
        offsets_[v + 1] - offsets_[v] + static_cast<std::size_t>(std::int64_t{shift[v]});
    degrees_match &= expect == degree;
    spare_offsets_[v + 1] = spare_offsets_[v] + degree;
  }
  DG_CHECK(degrees_match);  // the delta must describe g
  DG_CHECK(spare_offsets_[n] == 2 * g.num_edges());
  spare_targets_.resize(spare_offsets_[n]);

  changes.apply(offsets_, targets_, spare_targets_);
  std::swap(offsets_, spare_offsets_);
  std::swap(targets_, spare_targets_);
  revision_ = 0;
  patched_from_ = 0;
}

std::size_t RoundGraphView::arc_index(NodeId v, NodeId w) const {
  const std::span<const NodeId> block = neighbors(v);
  const auto it = std::lower_bound(block.begin(), block.end(), w);
  if (it == block.end() || *it != w) return kNoArc;
  return offsets_[v] + static_cast<std::size_t>(it - block.begin());
}

}  // namespace dyngossip
