// Single-Source-Unicast (Algorithm 1, Section 3.1).
//
// All k tokens start at one source, which labels them 1..k (dense ids
// 0..k-1 here).  Only complete nodes (holding all k tokens) ever send
// tokens; each complete node announces its completeness to every node it
// meets at most once; each incomplete node assigns at most one distinct
// missing-token request per incident edge to a known-complete neighbor,
// prioritizing new > idle > contributive edges; a complete node answers a
// round-(r-1) request in round r iff the edge survived.
//
// Message complexity (Theorem 3.1): 1-adversary-competitive O(n² + nk) —
//   tokens       <= nk              (each node receives each token once),
//   completeness <= n(n-1)          (once per ordered pair),
//   requests     <= nk + deletions  (a request is either answered next
//                                    round or its edge was deleted).
// Time (Theorem 3.4): O(nk) rounds on 3-edge-stable dynamic graphs.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/knowledge_set.hpp"
#include "core/knowledge.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Request-assignment priority over edge classes.  The paper's order
/// (new > idle > contributive) is what makes Lemma 3.2 tick: in a futile
/// round every bridge node spends a request on an idle edge, forcing the
/// adversary to delete idle edges it already paid for.  The alternatives
/// exist for the ablations scenario.
enum class RequestPriority : std::uint8_t {
  kPaper = 0,       ///< new > idle > contributive (Algorithm 1)
  kReversed = 1,    ///< new > contributive > idle
  kNewLast = 2,     ///< idle > contributive > new
};

/// Static parameters of a single-source run.
struct SingleSourceConfig {
  std::size_t n = 0;       ///< nodes
  std::uint32_t k = 0;     ///< tokens, labelled 0..k-1
  NodeId source = 0;       ///< the node initially holding all k tokens
  RequestPriority priority = RequestPriority::kPaper;  ///< ablation knob
};

/// Per-node state machine of Algorithm 1.
class SingleSourceNode final : public UnicastAlgorithm {
 public:
  SingleSourceNode(NodeId self, const SingleSourceConfig& cfg);

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// Definition 3.1: complete iff all k tokens are held.
  [[nodiscard]] bool complete() const noexcept { return tokens_.all(); }

  /// Tokens currently held.
  [[nodiscard]] const KnowledgeSet& tokens() const noexcept { return tokens_; }

  /// Definition 3.2 (evaluated for the current round): incomplete with a
  /// known-complete live neighbor.
  [[nodiscard]] bool is_bridge_node() const;

  /// Instrumentation: requests sent so far, by edge class at send time.
  [[nodiscard]] std::uint64_t requests_over(EdgeClass c) const {
    return requests_by_class_[static_cast<std::size_t>(c)];
  }

  /// Builds the n node instances.
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all(
      const SingleSourceConfig& cfg);

  /// K_v(0): the source holds all tokens, everyone else none.
  [[nodiscard]] static std::vector<KnowledgeSet> initial_knowledge(
      const SingleSourceConfig& cfg);

 private:
  NodeId self_;
  SingleSourceConfig cfg_;
  KnowledgeSet tokens_;          ///< K_v
  KnowledgeSet informed_;        ///< R_v: nodes I announced completeness to
  KnowledgeSet known_complete_;  ///< S_v: nodes that announced completeness
  EdgeClassifier classifier_;
  /// Requests I sent last round (sorted by neighbor id).
  RequestList sent_requests_;
  /// Requests received last round, answered this round if the edge survives.
  std::vector<std::pair<NodeId, TokenId>> pending_answers_;
  std::uint64_t requests_by_class_[3] = {0, 0, 0};
  // Per-round scratch, reused across rounds (send() leaves in_flight_ empty).
  RequestList surviving_;            ///< last round's requests whose edge survived
  RequestList next_requests_;        ///< the round's fresh request assignment
  KnowledgeSet in_flight_;          ///< tokens known to arrive this round
  std::vector<NodeId> by_class_[3];  ///< eligible edges partitioned by class
};

}  // namespace dyngossip
