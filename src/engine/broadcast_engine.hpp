// Synchronous round engine for the local-broadcast model (Section 2).
//
// Order of play per round r, matching the strongly adaptive model used by
// the Section-2 lower bound:
//   1. every node v commits its broadcast token i_v(r) (or ⊥) — a
//      token-forwarding algorithm may choose only tokens it already holds;
//   2. the adversary, shown all intents and all knowledge sets, fixes the
//      connected graph G_r;
//   3. every broadcast is delivered to all round-r neighbors; each local
//      broadcast counts as ONE message (Definition 1.1);
//   4. token learnings are recorded and knowledge sets grow.
//
// The engine owns the authoritative knowledge mirror (used for metrics, the
// adversary view, and the token-forwarding check); algorithms keep whatever
// internal state they need on top.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/round_ingest.hpp"
#include "graph/round_view.hpp"
#include "metrics/accounting.hpp"
#include "metrics/learning_log.hpp"
#include "sim/run_control.hpp"

namespace dyngossip {

/// Per-node algorithm interface for the local-broadcast model.
///
/// Implementations are token-forwarding: choose_broadcast must return a
/// token the node currently knows (or kNoToken for silence); the engine
/// enforces this.
class BroadcastAlgorithm {
 public:
  virtual ~BroadcastAlgorithm() = default;

  /// i_v(r): the token to locally broadcast in round r, or kNoToken (⊥).
  /// Called before the adversary fixes the round graph, so the choice cannot
  /// depend on round-r neighbors (the model gives broadcasters no
  /// neighborhood preview).
  [[nodiscard]] virtual TokenId choose_broadcast(Round r) = 0;

  /// Delivery at the end of round r: the tokens broadcast by round-r
  /// neighbors (duplicates possible; ⊥ entries are filtered out).
  virtual void on_receive(Round r, std::span<const TokenId> tokens) = 0;
};

/// Engine options: the shared RunOptions (pool, faults, timeout,
/// telemetry; see sim/run_options.hpp) plus the broadcast engine's own.
struct BroadcastEngineOptions : RunOptions {
  /// Record individual learning events (O(nk) memory) in the learning log.
  bool record_learning_events = false;
  /// Minimum node count before sharding engages.
  std::size_t min_parallel_nodes = 4096;
};

/// Drives n BroadcastAlgorithm instances against an adversary.
class BroadcastEngine {
 public:
  /// `initial_knowledge[v]` is K_v(0); all bitsets must have universe k.
  BroadcastEngine(std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes,
                  Adversary& adversary,
                  std::vector<KnowledgeSet> initial_knowledge, std::size_t k,
                  BroadcastEngineOptions opts = {});

  /// Executes one round; returns its number.
  Round step();

  /// Runs until every node knows all k tokens or `max_rounds` elapse;
  /// returns the final metrics (completed flag set accordingly).
  RunMetrics run(Round max_rounds);

  /// True iff every node knows all k tokens.
  [[nodiscard]] bool all_complete() const noexcept {
    return complete_nodes_ == knowledge_.size();
  }

  /// The run-level completion predicate (RunControl::run_complete).
  [[nodiscard]] bool run_complete() const { return control_.run_complete(); }

  /// Residual coverage (RunControl::coverage).
  [[nodiscard]] double coverage() const { return control_.coverage(); }

  /// Authoritative knowledge of node v.
  [[nodiscard]] const KnowledgeSet& knowledge_of(NodeId v) const {
    return knowledge_[v];
  }

  /// Metrics accumulated so far.
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return metrics_; }

  /// Last executed round (0 before the first step).
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// Learning log (counts always; events if enabled).
  [[nodiscard]] const LearningLog& learning_log() const noexcept { return log_; }

 private:
  /// Per-shard scratch: intent counter for the choose phase, inbox buffer
  /// plus learning counters for the delivery phase.  Reused across rounds.
  struct Shard {
    std::uint64_t broadcasts = 0;
    std::uint64_t learnings = 0;
    std::size_t newly_complete = 0;
    // Probe-only fault-fate counts (written only when a probe is attached),
    // folded in shard order like the metric counters.
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::vector<TokenId> inbox;
  };

  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes_;
  Adversary& adversary_;
  std::vector<KnowledgeSet> knowledge_;
  std::size_t k_;
  std::size_t complete_nodes_ = 0;
  DynamicGraphTracker tracker_;
  RoundIngest ingest_;                 // G_r's CSR snapshot, BFS check, tracker
  RunMetrics metrics_;
  RunControl control_;
  LearningLog log_;
  Round round_ = 0;
  std::size_t min_parallel_nodes_;
  std::vector<TokenId> intents_;       // scratch: i_v(r)
  std::vector<TokenId> inbox_scratch_; // scratch: per-node deliveries
  std::vector<Shard> shards_;          // scratch: sharded-path counters
};

}  // namespace dyngossip
