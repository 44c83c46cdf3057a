// Oblivious churn adversary.
//
// Generates a committed-in-advance dynamic graph: starting from a random
// connected graph, each round it deletes up to `churn_per_round` edges that
// have been present for at least σ rounds (so the sequence is σ-edge
// stable), inserts fresh random edges to hold the edge count near
// `target_edges`, and patches connectivity with extra random edges if a
// deletion split the graph.  Every decision is a function of the seed and
// the round alone — the oblivious model of Section 1.3.
//
// A `fresh_graph_each_round` mode resamples a completely new connected
// graph every round: the maximum-churn regime (TC grows by ~|E_r| per
// round), useful for stressing the adversary-competitive analysis where the
// algorithm's "free budget" dominates.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"

namespace dyngossip {

/// Churn schedule parameters.
struct ChurnConfig {
  std::size_t n = 0;               ///< node count
  std::size_t target_edges = 0;    ///< steady-state |E_r| (>= n-1 enforced)
  std::size_t churn_per_round = 0; ///< deletions attempted per round
  Round sigma = 1;                 ///< σ-edge stability honored (>= 1)
  std::uint64_t seed = 1;          ///< the adversary's committed randomness
  bool fresh_graph_each_round = false;  ///< resample a new graph each round
};

/// Seeded, σ-stable, always-connected churn generator.
class ChurnAdversary final : public ObliviousAdversary {
 public:
  explicit ChurnAdversary(const ChurnConfig& cfg);

  [[nodiscard]] std::size_t num_nodes() const override { return cfg_.n; }

 protected:
  [[nodiscard]] const Graph& next_graph(Round r) override;

 private:
  /// Inserts one uniformly random absent edge (recorded in pending_);
  /// returns false if the graph is complete.
  bool add_random_edge();

  /// Rebuilds inserted_at_ from current_ with every edge aged `r`.
  void reset_ages(Round r);

  /// Drops the sorted `cut` keys from inserted_at_ and adds pending_ aged
  /// `r`, in one merge pass.
  void fold_ages(std::span<const EdgeKey> cut, Round r);

  ChurnConfig cfg_;
  Rng rng_;
  Graph current_;
  /// Live-edge insertion rounds, sorted by edge key (mirrors current_'s edge
  /// set).  The σ-stability scan walks this in order, so the removable list
  /// needs no per-round sort and no hashing.
  std::vector<std::pair<EdgeKey, Round>> inserted_at_;
  std::vector<std::pair<EdgeKey, Round>> age_scratch_;  ///< fold_ages buffer
  std::vector<EdgeKey> pending_;  ///< edges inserted in the current round
  std::vector<EdgeKey> removable_;  ///< σ-old edges, shuffled to pick cuts
  ConnectivityChecker connectivity_;  ///< reused buffers of the repair
  Round last_round_ = 0;
};

}  // namespace dyngossip
