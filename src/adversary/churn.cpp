#include "adversary/churn.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "graph/generators.hpp"

namespace dyngossip {

ChurnAdversary::ChurnAdversary(const ChurnConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), current_(cfg.n) {
  DG_CHECK(cfg_.n >= 1);
  DG_CHECK(cfg_.sigma >= 1);
  if (cfg_.n >= 2 && cfg_.target_edges < cfg_.n - 1) cfg_.target_edges = cfg_.n - 1;
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  cfg_.target_edges = std::min(cfg_.target_edges, max_edges);
}

bool ChurnAdversary::add_random_edge() {
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  if (current_.num_edges() >= max_edges) return false;
  // Rejection sampling; the graphs used in experiments are sparse, so a few
  // tries suffice.  Guard against dense graphs with a bounded fallback scan.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto u = static_cast<NodeId>(rng_.next_below(cfg_.n));
    auto v = static_cast<NodeId>(rng_.next_below(cfg_.n - 1));
    if (v >= u) ++v;
    if (current_.add_edge(u, v)) {
      pending_.push_back(edge_key(u, v));
      return true;
    }
  }
  for (NodeId u = 0; u < cfg_.n; ++u) {
    for (NodeId v = u + 1; v < cfg_.n; ++v) {
      if (current_.add_edge(u, v)) {
        pending_.push_back(edge_key(u, v));
        return true;
      }
    }
  }
  return false;
}

void ChurnAdversary::reset_ages(Round r) {
  inserted_at_.clear();
  current_.for_each_edge(
      [this, r](EdgeKey key) { inserted_at_.push_back({key, r}); });
  std::sort(inserted_at_.begin(), inserted_at_.end());
}

void ChurnAdversary::fold_ages(std::span<const EdgeKey> cut, Round r) {
  // One merge of three sorted lists: the age list, the cut (a subset of its
  // keys) and this round's insertions (aged r).  An insertion is never a
  // surviving key, since it was absent when added; it may be a cut key
  // re-added this round, which comes back aged r.  Cuts and insertions are
  // few next to the age list, so the surviving runs between them are
  // copied whole.
  std::sort(pending_.begin(), pending_.end());
  age_scratch_.resize(inserted_at_.size() - cut.size() + pending_.size());
  auto src = inserted_at_.cbegin();
  auto dst = age_scratch_.begin();
  std::size_t c = 0;
  std::size_t p = 0;
  while (c < cut.size() || p < pending_.size()) {
    const bool is_cut = c < cut.size() && (p == pending_.size() || cut[c] <= pending_[p]);
    const EdgeKey key = is_cut ? cut[c] : pending_[p];
    const auto run_end = std::find_if(src, inserted_at_.cend(),
                                      [key](const auto& entry) { return entry.first >= key; });
    dst = std::copy(src, run_end, dst);
    src = run_end;
    if (is_cut) {
      DG_DCHECK(src->first == key);
      ++src;
      ++c;
    } else {
      *dst++ = {key, r};
      ++p;
    }
  }
  std::copy(src, inserted_at_.cend(), dst);
  std::swap(inserted_at_, age_scratch_);
}

const Graph& ChurnAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;

  if (cfg_.fresh_graph_each_round) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    return current_;
  }

  if (r == 1) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    current_.commit();
    reset_ages(1);
    return current_;
  }

  // 1. Delete up to churn_per_round edges old enough to respect σ-stability.
  //    An edge inserted at r0 must be present in rounds r0 .. r0+σ-1, so it
  //    may first be absent in round r0+σ.  inserted_at_ is sorted by key, so
  //    the removable list comes out in the canonical order directly.
  removable_.clear();
  for (const auto& [key, r0] : inserted_at_) {
    if (r >= r0 + cfg_.sigma) removable_.push_back(key);
  }
  rng_.shuffle(removable_);
  const std::size_t cuts = std::min(cfg_.churn_per_round, removable_.size());
  // The cut prefix is sorted in place; the shuffled tail is not read again.
  const std::span<EdgeKey> cut(removable_.data(), cuts);
  std::sort(cut.begin(), cut.end());
  for (const EdgeKey key : cut) {
    const auto [u, v] = edge_endpoints(key);
    current_.remove_edge(u, v);
  }

  // 2. Replenish toward the target edge count.
  pending_.clear();
  while (current_.num_edges() < cfg_.target_edges) {
    if (!add_random_edge()) break;
  }

  // 3. Patch connectivity (these insertions are part of the adversary's
  //    committed schedule and are charged to TC like any other).
  for (const EdgeKey key : connectivity_.connect(current_, rng_)) {
    pending_.push_back(key);
  }

  // 4. Fold the cuts and this round's insertions into the sorted age list.
  if (!cut.empty() || !pending_.empty()) fold_ages(cut, r);
  current_.commit();
  return current_;
}

}  // namespace dyngossip
