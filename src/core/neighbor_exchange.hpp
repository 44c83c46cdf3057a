// Trivial unicast upper bound (Section 1): "each node sends each token at
// most once to each other node" — O(n²) amortized messages per token.
//
// Every round, each node sends to each current neighbor the next held token
// it has never sent to that specific neighbor (one per edge per round,
// respecting the bandwidth constraint).  No requests, no announcements —
// pure push.  The per-(node, token, target) once-only rule caps the total
// at n²k messages; the paper cites this as the easy unicast ceiling that
// the adversary-competitive analysis of Section 3 then beats.
//
// Note: against a benign (oblivious) adversary this baseline completes
// quickly, but unlike Algorithm 1 it wastes Θ(n) messages per token on
// recipients that already hold it — the waste the request/response
// discipline of Single-Source-Unicast exists to avoid.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/knowledge_set.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Per-node state machine of the push-only baseline.
class NeighborExchangeNode final : public UnicastAlgorithm {
 public:
  /// `initial` is K_v(0) over a k-token universe.
  NeighborExchangeNode(NodeId self, std::size_t n, std::size_t k,
                       const KnowledgeSet& initial);

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// Tokens currently held.
  [[nodiscard]] const KnowledgeSet& tokens() const noexcept { return tokens_; }

  /// Builds the n node instances.
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all(
      std::size_t n, std::size_t k, const std::vector<KnowledgeSet>& initial);

 private:
  NodeId self_;
  std::size_t k_;
  KnowledgeSet tokens_;
  /// held tokens in acquisition order (stable send order per target).
  std::vector<TokenId> order_;
  /// per-target cursor into order_; everything before it was already sent.
  std::unordered_map<NodeId, std::size_t> sent_up_to_;
};

}  // namespace dyngossip
