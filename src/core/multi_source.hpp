// Multi-Source-Unicast (Section 3.2.1).
//
// Tokens start at s source nodes a_1 < a_2 < ... < a_s, with a_i holding
// k_i tokens labelled ⟨a_i, 1..k_i⟩.  All nodes give the highest priority to
// disseminating the tokens of the minimum-ID source whose dissemination they
// have not completed, which lets the single-source analysis apply source by
// source.  Per round, each node v runs three tasks in parallel:
//   1. for each edge {v,w}: if some source x has x ∈ I_v (v complete w.r.t.
//      x) and w ∉ R_v(x) (w not yet informed by v), announce completeness
//      w.r.t. the minimum such x (one announcement per edge per round);
//   2. answer every request received last round whose edge survived;
//   3. pick the minimum x ∉ I_v with S_v(x) ≠ ∅ (some neighbor announced
//      completeness w.r.t. x) and run Algorithm 1's request assignment as if
//      x were the only source.
//
// Message complexity (Theorem 3.5): 1-adversary-competitive O(n²s + nk).
// Time (Theorem 3.6): O(nk) rounds on 3-edge-stable graphs.
//
// Tasks 1 and 3 keep word-parallel bookkeeping (R_v transposed into one
// source row per met neighbor, I_v and the requestable sources as source
// bitsets, a held-prefix cursor per source), so a node-round costs
// O(deg + s/64) words plus O(1) per message sent; see docs/ARCHITECTURE.md,
// "Multi-source send bookkeeping".
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/knowledge_set.hpp"
#include "core/knowledge.hpp"
#include "core/tokens.hpp"
#include "engine/unicast_engine.hpp"

namespace dyngossip {

/// Static parameters of a multi-source run.
struct MultiSourceConfig {
  std::size_t n = 0;      ///< nodes
  TokenSpacePtr space;    ///< token labelling (shared, immutable)
};

/// Per-node state machine of the Multi-Source-Unicast algorithm.
class MultiSourceNode final : public UnicastAlgorithm {
 public:
  /// `initial_tokens` is K_v(0) (usually space->initial_knowledge(n)[v];
  /// Algorithm 2's phase 2 passes knowledge accumulated during phase 1).
  MultiSourceNode(NodeId self, const MultiSourceConfig& cfg,
                  const KnowledgeSet& initial_tokens);

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override;
  void on_receive(Round r, NodeId from, const Message& m) override;

  /// True iff v holds every token of source index x (x ∈ I_v).
  [[nodiscard]] bool complete_wrt(std::size_t x) const {
    return ((complete_bits_[x >> 6] >> (x & 63)) & 1u) != 0;
  }

  /// True iff v holds all k tokens.
  [[nodiscard]] bool complete_all() const noexcept {
    return tokens_.all();
  }

  /// Tokens currently held.
  [[nodiscard]] const KnowledgeSet& tokens() const noexcept { return tokens_; }

  /// Instrumentation: requests sent so far, by edge class at send time.
  [[nodiscard]] std::uint64_t requests_over(EdgeClass c) const {
    return requests_by_class_[static_cast<std::size_t>(c)];
  }

  /// Builds the n node instances with the canonical initial distribution.
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all(
      const MultiSourceConfig& cfg);

  /// Builds the n node instances from explicit initial knowledge (phase 2).
  [[nodiscard]] static std::vector<std::unique_ptr<UnicastAlgorithm>> make_all_with(
      const MultiSourceConfig& cfg, const std::vector<KnowledgeSet>& initial);

 private:
  /// Per-source protocol state.
  struct PerSource {
    std::uint32_t held = 0;           ///< tokens of x currently held
    std::uint32_t first_missing = 0;  ///< tokens_of(x)[0, first_missing) are held
    KnowledgeSet announcers;          ///< S_v(x) — announced their completeness to me
  };

  /// Marks token t held; updates per-source counters and completeness.
  void account_token(TokenId t);

  /// Row of neighbor w in announced_, appending an empty row the first
  /// time w is met.
  std::uint32_t row_of(NodeId w);

  /// Points slot_rows_ at this round's neighbors, reusing the rows of
  /// `prev` (the neighbor list slot_rows_ covers now).
  void bind_rows(std::span<const NodeId> neighbors, std::span<const NodeId> prev);

  MultiSourceConfig cfg_;
  KnowledgeSet tokens_;
  std::vector<PerSource> per_source_;  ///< indexed by source index
  std::size_t words_;                  ///< ⌈s/64⌉, the length of a source row
  std::vector<std::uint64_t> complete_bits_;     ///< I_v as a source bitset
  std::vector<std::uint64_t> requestable_bits_;  ///< x ∉ I_v with S_v(x) ≠ ∅
  // R_v transposed: one row of words_ words per neighbor met since I_v
  // became nonempty, bit x set iff v announced its completeness w.r.t. x
  // to that neighbor.  Rows only grow.  saturated_[row] != 0 promises the
  // row covers I_v (nothing is owed); every completion clears it.
  std::vector<std::uint64_t> announced_;
  std::vector<std::uint8_t> saturated_;
  std::vector<NodeId> row_owner_;         ///< the neighbor of each row
  std::vector<std::uint32_t> row_index_;  ///< open addressing: row + 1, 0 = empty
  std::vector<std::uint32_t> slot_rows_;  ///< row of each current neighbor slot
  std::vector<std::uint32_t> rebound_;    ///< bind_rows scratch
  bool rows_bound_ = false;               ///< slot_rows_ covers the classifier's list
  EdgeClassifier classifier_;
  RequestList sent_requests_;          ///< sorted by neighbor id
  std::vector<std::pair<NodeId, TokenId>> pending_answers_;
  std::uint64_t requests_by_class_[3] = {0, 0, 0};
  // Per-round scratch, reused across rounds (send() leaves in_flight_ empty).
  RequestList surviving_;
  RequestList next_requests_;
  KnowledgeSet in_flight_;
  std::vector<NodeId> by_class_[3];
};

}  // namespace dyngossip
