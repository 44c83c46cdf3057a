// Adaptive request-cutting adversary (unicast model).
//
// The nastiest behaviour the adversary-competitive analysis of Theorem 3.1
// must absorb: watch the execution, and whenever a node sent a token request
// over an edge, delete that edge before the response can flow, forcing the
// requester to spend another request elsewhere.  Every such deletion is
// eventually paid for by an insertion (TC), which is exactly why the
// paper's accounting charges wasted requests to the adversary's budget.
//
// Against the *deterministic* Single-/Multi-Source algorithms, seeing the
// previous round's traffic is equivalent to strong adaptivity: the
// adversary can perfectly predict the current round's messages.
//
// `cut_probability` < 1 lets some responses through so runs terminate;
// `cut_probability` = 1 starves dissemination forever while TC grows —
// the bench verifies the competitive bound still holds along the way.
#pragma once

#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "graph/connectivity.hpp"

namespace dyngossip {

/// Request-cutter parameters.
struct RequestCutterConfig {
  std::size_t n = 0;             ///< node count
  std::size_t target_edges = 0;  ///< steady-state |E_r|
  double cut_probability = 1.0;  ///< chance each request-carrying edge is cut
  std::uint64_t seed = 1;        ///< adversary randomness
};

/// Deletes (with probability `cut_probability`) every edge that carried a
/// request in the previous round, then replenishes and reconnects randomly.
class RequestCutterAdversary final : public Adversary {
 public:
  explicit RequestCutterAdversary(const RequestCutterConfig& cfg);

  [[nodiscard]] std::size_t num_nodes() const override { return cfg_.n; }

  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override;

  /// Number of edges this adversary has cut because they carried requests.
  [[nodiscard]] std::uint64_t cuts() const noexcept { return cuts_; }

 private:
  RequestCutterConfig cfg_;
  Rng rng_;
  Graph current_;
  Round last_round_ = 0;
  std::uint64_t cuts_ = 0;
  // Per-round scratch, reused across rounds.
  std::vector<EdgeKey> victims_;      ///< sorted, unique edges cut this round
  ConnectivityChecker connectivity_;  ///< component labels for the repair
};

}  // namespace dyngossip
