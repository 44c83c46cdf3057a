// Token universe and source labelling.
//
// Definition 1.2: k distinct tokens are initially placed at some nodes.  The
// single-source algorithm labels them 1..k; the multi-source algorithms
// label them ⟨source id, index⟩ (Section 3.2).  TokenSpace is the global
// bijection between those labels and dense TokenIds 0..k-1: it records which
// source originated which token ids, supports source-of-token and
// tokens-of-source lookups, and builds the initial knowledge assignment.
//
// Algorithm 2's phase 2 relabels tokens under their collecting centers; the
// simulator expresses that as a second TokenSpace over the same global ids
// with the centers as sources (the ⟨center, index⟩ relabelling is a
// bijection, so "all nodes know all tokens" is invariant across phases).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/types.hpp"

namespace dyngossip {

class Rng;

/// Sentinel for "node is not a source".
inline constexpr std::size_t kNotASource = static_cast<std::size_t>(-1);

/// Immutable global token-to-source labelling.
class TokenSpace {
 public:
  /// Source descriptor used by the contiguous-range factory.
  struct SourceSpec {
    NodeId node = kNoNode;     ///< the source node a_i
    std::uint32_t count = 0;   ///< k_i, the number of tokens it originates
  };

  /// Single source owning tokens 0..k-1 (Section 3.1).
  [[nodiscard]] static TokenSpace single_source(NodeId source, std::uint32_t k);

  /// Multi-source with contiguous per-source id ranges, sources ordered by
  /// ascending node id (the paper's a_1 < a_2 < ... < a_s).  Every count
  /// must be >= 1.
  [[nodiscard]] static TokenSpace contiguous(std::vector<SourceSpec> sources);

  /// Fully general labelling: each source owns an explicit token-id list.
  /// The lists must partition 0..k-1; sources must have distinct nodes and
  /// are sorted by node id internally.
  TokenSpace(std::uint32_t k,
             std::vector<std::pair<NodeId, std::vector<TokenId>>> sources);

  /// Total number of tokens k.
  [[nodiscard]] std::uint32_t total_tokens() const noexcept { return k_; }

  /// Number of sources s.
  [[nodiscard]] std::size_t num_sources() const noexcept { return nodes_.size(); }

  /// Node id of the i-th source (ascending node-id order).
  [[nodiscard]] NodeId source_node(std::size_t i) const;

  /// Token ids originated by the i-th source (sorted ascending).
  [[nodiscard]] const std::vector<TokenId>& tokens_of(std::size_t i) const;

  /// k_i = |tokens_of(i)|.
  [[nodiscard]] std::uint32_t count_of(std::size_t i) const;

  /// Index of the source that originated token t.
  [[nodiscard]] std::size_t source_of_token(TokenId t) const;

  /// Source index of a node, or kNotASource (O(1): one table load).
  [[nodiscard]] std::size_t index_of_node(NodeId node) const noexcept {
    if (node >= index_of_.size() || index_of_[node] == kNoIndex) return kNotASource;
    return index_of_[node];
  }

  /// K_v(0): each source starts with exactly its own tokens.
  [[nodiscard]] std::vector<KnowledgeSet> initial_knowledge(std::size_t n) const;

 private:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  std::uint32_t k_ = 0;
  std::vector<NodeId> nodes_;                 // ascending
  std::vector<std::vector<TokenId>> tokens_;  // parallel to nodes_
  std::vector<std::uint32_t> owner_of_;       // token -> source index
  std::vector<std::uint32_t> index_of_;       // node -> source index (to the last source)
};

/// Shared immutable handle used by per-node algorithm instances.
using TokenSpacePtr = std::shared_ptr<const TokenSpace>;

/// K_v(0) with one random holder per token: token t = 0, 1, ..., k-1 (in
/// that draw order) starts at node rng.next_below(n) only.
[[nodiscard]] std::vector<KnowledgeSet> one_holder_per_token(std::size_t n,
                                                             std::size_t k, Rng& rng);

}  // namespace dyngossip
