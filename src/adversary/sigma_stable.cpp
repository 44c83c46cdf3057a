#include "adversary/sigma_stable.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/generators.hpp"

namespace dyngossip {

SigmaStableChurnAdversary::SigmaStableChurnAdversary(const SigmaStableChurnConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), current_(cfg.n) {
  DG_CHECK(cfg_.n >= 1);
  DG_CHECK(cfg_.sigma >= 1);
  if (cfg_.n >= 2 && cfg_.target_edges < cfg_.n - 1) cfg_.target_edges = cfg_.n - 1;
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  cfg_.target_edges = std::min(cfg_.target_edges, max_edges);
}

bool SigmaStableChurnAdversary::add_random_edge() {
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  if (current_.num_edges() >= max_edges) return false;
  // Rejection sampling with a bounded fallback scan (same scheme as
  // ChurnAdversary: the experiment graphs are sparse, so a few tries do it).
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto u = static_cast<NodeId>(rng_.next_below(cfg_.n));
    auto v = static_cast<NodeId>(rng_.next_below(cfg_.n - 1));
    if (v >= u) ++v;
    if (current_.add_edge(u, v)) return true;
  }
  for (NodeId u = 0; u < cfg_.n; ++u) {
    for (NodeId v = u + 1; v < cfg_.n; ++v) {
      if (current_.add_edge(u, v)) return true;
    }
  }
  return false;
}

void SigmaStableChurnAdversary::rewire() {
  // 1. Delete up to the churn budget, sampled uniformly over the live edge
  //    set in canonical order (deterministic given the seed).
  edge_scratch_.clear();
  current_.for_each_edge([this](EdgeKey key) { edge_scratch_.push_back(key); });
  std::sort(edge_scratch_.begin(), edge_scratch_.end());
  rng_.shuffle(edge_scratch_);
  const std::size_t cuts = std::min(cfg_.churn_per_interval, edge_scratch_.size());
  for (std::size_t i = 0; i < cuts; ++i) {
    const auto [u, v] = edge_endpoints(edge_scratch_[i]);
    current_.remove_edge(u, v);
  }

  // 2. Patch connectivity (part of the committed schedule, charged to TC
  //    like every other insertion), then replenish to the target count.
  connectivity_.connect(current_, rng_);
  while (current_.num_edges() < cfg_.target_edges) {
    if (!add_random_edge()) break;
  }
}

const Graph& SigmaStableChurnAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  if (r == 1) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    current_.commit();
    return current_;
  }
  if ((r - 1) % cfg_.sigma == 0) rewire();
  current_.commit();
  return current_;
}

}  // namespace dyngossip
