// Sync↔async time mapping: round schedules on a continuous clock.
//
// Every adversary in the registry produces a *round* schedule G_1, G_2, ...
// (including the file-backed trace:/scripted:/smoothed: families).  The
// asynchronous engine runs on continuous time, so ClockedAdversary adapts
// any of them with one convention: **edge lifetime = σ clock units** —
// round r's graph G_r is the live topology throughout the half-open window
// [(r-1)·σ, r·σ).  σ is the `sigma` key of the async families; σ = 1 makes
// one schedule round equal one expected activation per node at rate 1,
// which is the natural sync↔async comparison point.
//
// The adapter advances the inner adversary one round at a time (incremental
// adversaries depend on seeing every round) through an honest
// UnicastRoundView: the entering knowledge and an empty traffic log —
// continuous-time sends have no round-aligned "previous round's messages",
// so an adaptive adversary sees state but not traffic (exactly the
// visibility an oblivious family ignores anyway).
#pragma once

#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/message.hpp"
#include "graph/graph.hpp"

namespace dyngossip {

/// Adapts a round-schedule adversary to continuous time (see file comment).
class ClockedAdversary {
 public:
  /// `inner` must outlive the adapter; `sigma` > 0 is the edge lifetime in
  /// clock units.
  ClockedAdversary(Adversary& inner, double sigma);

  [[nodiscard]] std::size_t num_nodes() const { return inner_.num_nodes(); }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

  /// The schedule round whose graph is live at clock time t >= 0:
  /// floor(t / σ) + 1 (round r owns [(r-1)σ, rσ)).
  [[nodiscard]] Round round_of(double t) const noexcept {
    return static_cast<Round>(t / sigma_) + 1;
  }

  /// Clock time at which round r's window ends (and round r+1 begins).
  [[nodiscard]] double window_end(Round r) const noexcept {
    return static_cast<double>(r) * sigma_;
  }

  /// Builds the next round's graph through the inner adversary.
  /// `knowledge` is each node's token knowledge entering the window.  The
  /// returned reference is inner-adversary-owned and stays valid until the
  /// next call.
  const Graph& next_round(const std::vector<KnowledgeSet>& knowledge);

  /// Rounds consumed from the schedule so far.
  [[nodiscard]] Round round() const noexcept { return round_; }

 private:
  Adversary& inner_;
  double sigma_;
  Round round_ = 0;
  std::vector<SentRecord> no_messages_;  ///< always empty (see file comment)
};

}  // namespace dyngossip
