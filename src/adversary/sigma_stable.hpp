// σ-interval-stable high-churn adversary.
//
// The paper's stability parameter (Section 2) partitions rounds into
// intervals of length σ; a σ-interval-stable dynamic network changes its
// topology only at interval boundaries, so every edge that ever exists
// survives at least σ consecutive rounds.  This adversary realizes the
// *high-churn end* of that family: at every boundary it deletes up to a
// churn budget of random edges and replenishes with fresh random edges
// (patching connectivity), so between intervals the graph can turn over
// almost completely while within an interval it is frozen.
//
// This is the stress regime ChurnAdversary's per-edge aging cannot reach at
// scale: fresh-graph resampling never lets a request edge survive into its
// answer round, so request-based algorithms (Algorithms 1/2's
// request-response pattern) stall forever at n ~ 10⁴.  Here any request sent
// in the first σ-1 rounds of an interval is answered over a still-live edge,
// which keeps n = 10⁴ runs completing under churn volumes (several percent
// of the edge set per round, delivered in σ-sized bursts) that are multiples
// of what the per-edge-aging churn workloads sustain.
//
// Oblivious by construction: the schedule is a pure function of the seed and
// the round number, and next_graph does zero work on the σ-1 in-interval
// rounds (it returns the frozen graph).
#pragma once

#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"

namespace dyngossip {

/// σ-interval churn parameters.
struct SigmaStableChurnConfig {
  std::size_t n = 0;                ///< node count
  std::size_t target_edges = 0;     ///< steady-state |E_r| (>= n-1 enforced)
  std::size_t churn_per_interval = 0;  ///< deletions attempted per boundary
  Round sigma = 1;                  ///< interval length (graph frozen within)
  std::uint64_t seed = 1;           ///< committed randomness
};

/// Seeded σ-interval-stable churn generator; connected every round.
class SigmaStableChurnAdversary final : public ObliviousAdversary {
 public:
  explicit SigmaStableChurnAdversary(const SigmaStableChurnConfig& cfg);

  [[nodiscard]] std::size_t num_nodes() const override { return cfg_.n; }

 protected:
  [[nodiscard]] const Graph& next_graph(Round r) override;

 private:
  /// Rewires at an interval boundary: delete up to the churn budget, patch
  /// connectivity, replenish to the target edge count.
  void rewire();

  /// Inserts one uniformly random absent edge; false if complete.
  bool add_random_edge();

  SigmaStableChurnConfig cfg_;
  Rng rng_;
  Graph current_;
  std::vector<EdgeKey> edge_scratch_;  ///< shuffle buffer for deletions
  ConnectivityChecker connectivity_;   ///< reused buffers of the repair
  Round last_round_ = 0;
};

}  // namespace dyngossip
