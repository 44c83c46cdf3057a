#include "adversary/request_cutter.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/generators.hpp"

namespace dyngossip {

RequestCutterAdversary::RequestCutterAdversary(const RequestCutterConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), current_(cfg.n) {
  DG_CHECK(cfg_.n >= 1);
  if (cfg_.n >= 2 && cfg_.target_edges < cfg_.n - 1) cfg_.target_edges = cfg_.n - 1;
  const std::size_t max_edges = cfg_.n * (cfg_.n - 1) / 2;
  cfg_.target_edges = std::min(cfg_.target_edges, max_edges);
}

const Graph& RequestCutterAdversary::unicast_round(const UnicastRoundView& view) {
  DG_CHECK(view.round == last_round_ + 1);
  last_round_ = view.round;

  if (view.round == 1) {
    current_ = random_connected_with_edges(cfg_.n, cfg_.target_edges, rng_);
    current_.commit();
    return current_;
  }

  // Cut edges that carried a request last round, before the token response
  // (which the algorithm sends this round) can traverse them.
  DG_CHECK(view.prev_messages != nullptr);
  victims_.clear();
  for (const SentRecord& rec : *view.prev_messages) {
    if (rec.msg.type != MsgType::kRequest) continue;
    const EdgeKey key = edge_key(rec.from, rec.to);
    if (current_.has_edge(rec.from, rec.to) && rng_.bernoulli(cfg_.cut_probability)) {
      victims_.push_back(key);
    }
  }
  std::sort(victims_.begin(), victims_.end());
  victims_.erase(std::unique(victims_.begin(), victims_.end()), victims_.end());
  for (const EdgeKey key : victims_) {
    const auto [u, v] = edge_endpoints(key);
    if (current_.remove_edge(u, v)) ++cuts_;
  }

  // Replenish toward the target size with fresh random edges (the requester
  // will classify these as "new" and spend more requests — the point).
  // Victim edges are banned for this round: re-adding one would let the
  // pending response through, which a strongly adaptive adversary never
  // allows.  victims_ is sorted and unique, so the ban test is a binary search.
  const auto banned = [this](EdgeKey key) {
    return std::binary_search(victims_.begin(), victims_.end(), key);
  };
  std::size_t guard = 0;
  while (current_.num_edges() < cfg_.target_edges && guard < 64 * cfg_.target_edges) {
    ++guard;
    const auto u = static_cast<NodeId>(rng_.next_below(cfg_.n));
    auto v = static_cast<NodeId>(rng_.next_below(cfg_.n - 1));
    if (v >= u) ++v;
    if (banned(edge_key(u, v))) continue;
    current_.add_edge(u, v);
  }
  // Reconnect components without resurrecting a banned edge: one fresh edge
  // between each pair of adjacent labels chains them, so one labelling
  // serves the whole repair.
  const std::size_t count = connectivity_.components(current_).count;
  for (std::size_t c = 1; c < count; ++c) {
    // Try random member pairs; a banned pair is re-rolled for 48 attempts,
    // after which the ban yields (a tiny graph may offer no other pair).
    // Either way the edge joins two components, so it is always new.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const NodeId a = rng_.pick(connectivity_.members(c - 1));
      const NodeId b = rng_.pick(connectivity_.members(c));
      if (attempt < 48 && banned(edge_key(a, b))) continue;
      const bool fresh = current_.add_edge(a, b);
      DG_CHECK(fresh);
      break;
    }
  }
  current_.commit();
  return current_;
}

}  // namespace dyngossip
