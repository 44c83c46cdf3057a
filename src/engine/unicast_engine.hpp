// Synchronous round engine for the unicast model (Section 3).
//
// Order of play per round r:
//   1. the adversary fixes the connected graph G_r (adaptive adversaries see
//      the full state and the previous round's traffic — for the paper's
//      deterministic unicast algorithms this equals strong adaptivity);
//   2. every node is told the IDs of its round-r neighbors (the model's
//      known-neighborhood assumption) and emits per-neighbor messages;
//   3. messages are delivered at the end of the round; each payload to each
//      neighbor counts as one message (Definition 1.1, unicast mode);
//   4. token learnings are recorded; duplicate token deliveries are counted
//      separately (the paper's algorithms deliver each token to each node
//      exactly once — a tested invariant).
//
// The engine enforces the model's bandwidth restriction: at most
// `max_payloads_per_edge` payloads per directed edge per round (the paper
// allows a constant number of tokens plus O(log n) bits; the Multi-Source
// algorithm uses at most three payloads — announcement, token, request).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "engine/message.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/round_view.hpp"
#include "metrics/accounting.hpp"
#include "metrics/learning_log.hpp"
#include "sim/run_control.hpp"

namespace dyngossip {

/// Outbox handed to a node during its send step; delivery is end-of-round.
///
/// The engine points every node's outbox at one shared traffic buffer that
/// is reused across rounds (records appended since the node's send began
/// are validated against that node); a default-constructed Outbox owns its
/// records (unit-test convenience).
class Outbox {
 public:
  Outbox() : sink_(&owned_) {}

  // Non-copyable/movable: a copy's sink_ would alias the source's owned_
  // buffer (dangling once the source dies).
  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// Queues one payload to a current neighbor.
  void send(NodeId to, const Message& m) { sink_->push_back({from_, to, m}); }

 private:
  friend class UnicastEngine;
  Outbox(NodeId from, std::vector<SentRecord>& sink) : from_(from), sink_(&sink) {}

  NodeId from_ = kNoNode;
  std::vector<SentRecord>* sink_;
  std::vector<SentRecord> owned_;  ///< backing store for the default ctor only
};

/// Per-node algorithm interface for the unicast model.
class UnicastAlgorithm {
 public:
  virtual ~UnicastAlgorithm() = default;

  /// Round r send step.  `neighbors` is the sorted list of round-r neighbor
  /// IDs (known at round start per the model).  Messages queued on `out` are
  /// delivered to recipients at the end of the round.
  virtual void send(Round r, std::span<const NodeId> neighbors, Outbox& out) = 0;

  /// Delivery of one payload at the end of round r.
  virtual void on_receive(Round r, NodeId from, const Message& m) = 0;

  // Parking contract (see UnicastEngine): a node may declare itself idle,
  // and the engine then skips its send step until something can change
  // that.  The defaults never park, which keeps every algorithm's
  // behaviour as it is.

  /// Asked right after send: true promises that, until woken, every later
  /// send would send nothing and change no state the node can observe.
  /// Any delivery wakes the node; so does an inserted edge for which
  /// wakes_on holds.  Removed edges never wake it.
  [[nodiscard]] virtual bool parked() const { return false; }

  /// Whether, while parked, an inserted edge to w should wake the node.
  [[nodiscard]] virtual bool wakes_on(NodeId /*w*/) const { return true; }

  /// Called before send, in round r, on a woken node whose edges changed
  /// while it slept (the rounds it skipped saw insertions or removals at
  /// it): resynchronises any per-edge state that send would otherwise
  /// judge against the last round it ran.  `tracker` has ingested round r.
  virtual void resume(Round /*r*/, std::span<const NodeId> /*neighbors*/,
                      const DynamicGraphTracker& /*tracker*/) {}
};

/// Engine options: the shared RunOptions (pool, faults, timeout,
/// telemetry; see sim/run_options.hpp) plus the unicast engine's own.
struct UnicastEngineOptions : RunOptions {
  /// First round number this engine executes (phase-2 engines of
  /// Algorithm 2 continue a running execution).
  Round start_round = 1;
  /// Shared topology tracker for multi-phase executions; if null the engine
  /// owns a fresh tracker (G_0 = ∅).
  DynamicGraphTracker* tracker = nullptr;
  /// Bandwidth cap: payloads per directed edge per round (model: O(1)).
  std::uint32_t max_payloads_per_edge = 4;
  /// Record individual learning events (O(nk) memory).
  bool record_learning_events = false;
  /// Minimum node count before sharding engages (below it fork/join
  /// overhead dominates a round).  Tests lower this to force sharding at
  /// small n.
  std::size_t min_parallel_nodes = 4096;
};

/// Drives n UnicastAlgorithm instances against an adversary.
///
/// Active-node frontier: a node whose parked() holds after its send sleeps
/// and is skipped by later send phases until a delivery to it, or an
/// inserted edge to w with wakes_on(w), wakes it.  Every edge inserted or
/// removed at a sleeping node marks it dirty, and a dirty node is resumed
/// before its next send.  Parking is off while a fault plan is active
/// (crashed nodes keep the skipped-rounds semantics of their own state).
class UnicastEngine {
 public:
  /// Called after each round with (round, round graph, metrics so far).
  using RoundHook = std::function<void(Round, const Graph&, const RunMetrics&)>;
  /// Stop predicate for run_until.
  using StopPredicate = std::function<bool(const UnicastEngine&)>;

  /// `initial_knowledge[v]` is K_v(0) over a k-token universe.
  UnicastEngine(std::vector<std::unique_ptr<UnicastAlgorithm>> nodes,
                Adversary& adversary, std::vector<KnowledgeSet> initial_knowledge,
                std::size_t k, UnicastEngineOptions opts = {});

  /// Executes one round; returns its number.
  Round step();

  /// Runs until every node knows all k tokens or the round limit; returns
  /// final metrics with the completed flag set.
  RunMetrics run(Round max_rounds);

  /// Runs until `done(*this)` or the round limit; completed flag reflects
  /// all_complete() at exit.
  RunMetrics run_until(const StopPredicate& done, Round max_rounds);

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

  /// Metrics accumulated by this engine (phase-local for multi-phase runs).
  [[nodiscard]] const RunMetrics& metrics() const noexcept { return metrics_; }

  /// Mutable metrics hook for simulators folding in algorithm-level stats
  /// (e.g. Algorithm 2's virtual self-loop steps).
  [[nodiscard]] RunMetrics& mutable_metrics() noexcept { return metrics_; }

  /// Last executed round (start_round - 1 before the first step).
  [[nodiscard]] Round round() const noexcept { return round_; }

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// The algorithm instance of node v (simulators downcast to read
  /// algorithm-specific stats).
  [[nodiscard]] UnicastAlgorithm& node(NodeId v) { return *nodes_[v]; }
  [[nodiscard]] const UnicastAlgorithm& node(NodeId v) const { return *nodes_[v]; }

  /// Learning log (counts always; events if enabled).
  [[nodiscard]] const LearningLog& learning_log() const noexcept { return log_; }

  /// Installs a per-round observer.
  void set_round_hook(RoundHook hook) { hook_ = std::move(hook); }

 private:
  /// Per-shard send-phase scratch (outbox + message counters), reused
  /// across rounds; merged in shard (= node) order after the joins.
  struct SendShard {
    std::vector<SentRecord> traffic;
    MessageCounts counts;
  };

  /// Per-shard delivery-phase counters, folded into the engine totals
  /// after the join.
  struct DeliverShard {
    std::uint64_t learnings = 0;
    std::uint64_t duplicates = 0;
    std::size_t newly_complete = 0;
  };

  /// Validates and accounts the records a node appended to `sink` since
  /// `mark` (shared by the serial and sharded send paths).
  void validate_sent(NodeId v, std::vector<SentRecord>& sink, std::size_t mark,
                     MessageCounts& counts);

  /// Wakes and marks dirty the sleeping endpoints of round r's diff
  /// (serial, before the send phase).
  void wake_from_diff(const GraphDiff& diff);

  /// One node's send step: resume if dirty, send, validate, and record
  /// whether it now sleeps.
  void send_node(Round r, NodeId v, std::vector<SentRecord>& sink,
                 MessageCounts& counts);

  void send_phase_sharded(Round r, std::size_t shards);
  void deliver_sharded(Round r, std::size_t shards);

  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes_;
  Adversary& adversary_;
  std::vector<KnowledgeSet> knowledge_;
  std::size_t k_;
  std::size_t complete_nodes_ = 0;
  std::unique_ptr<DynamicGraphTracker> owned_tracker_;
  DynamicGraphTracker* tracker_;
  RunMetrics metrics_;
  RunControl control_;
  LearningLog log_;
  Round start_offset_;
  Round round_;
  std::uint32_t max_payloads_per_edge_;
  std::size_t min_parallel_nodes_;
  RoundHook hook_;
  std::vector<SentRecord> prev_messages_;
  // Active-node frontier (all zero while a fault plan is active): a
  // sleeping node is skipped by the send phase; a dirty one saw edge
  // changes while asleep.  Byte arrays, so each shard writes only its own
  // nodes' entries.
  bool parking_;
  std::vector<std::uint8_t> asleep_;
  std::vector<std::uint8_t> dirty_;
  // Per-round scratch, reused across rounds (see step()).
  RoundGraphView view_;                   ///< CSR snapshot of G_r
  ConnectivityChecker connectivity_;      ///< BFS buffers for the G_r check
  std::vector<SentRecord> traffic_;       ///< round-r records (swapped into prev)
  std::vector<std::uint32_t> arc_budget_; ///< payload counts per directed arc
  // Fault-path scratch (touched only when fault_active()), reused across
  // rounds: per-record delivery fates and per-arc delivery sequences.
  std::vector<std::uint8_t> fate_;        ///< FaultPlan::Fate per traffic record
  std::vector<std::uint32_t> arc_seq_;    ///< delivery sequence per directed arc
  // Sharded-path scratch, reused across rounds.
  std::vector<SendShard> send_shards_;
  std::vector<DeliverShard> deliver_shards_;
  std::vector<std::size_t> recipient_begin_;   ///< bucket offsets per recipient
  std::vector<std::size_t> recipient_cursor_;  ///< scatter cursor per recipient
  std::vector<std::size_t> record_of_;         ///< traffic indices, bucketed
};

}  // namespace dyngossip
