#include "core/tokens.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dyngossip {

TokenSpace TokenSpace::single_source(NodeId source, std::uint32_t k) {
  std::vector<TokenId> ids(k);
  for (std::uint32_t i = 0; i < k; ++i) ids[i] = i;
  return TokenSpace(k, {{source, std::move(ids)}});
}

TokenSpace TokenSpace::contiguous(std::vector<SourceSpec> sources) {
  std::sort(sources.begin(), sources.end(),
            [](const SourceSpec& a, const SourceSpec& b) { return a.node < b.node; });
  std::vector<std::pair<NodeId, std::vector<TokenId>>> lists;
  lists.reserve(sources.size());
  std::uint32_t next = 0;
  for (const SourceSpec& s : sources) {
    DG_CHECK(s.count >= 1);
    std::vector<TokenId> ids(s.count);
    for (std::uint32_t i = 0; i < s.count; ++i) ids[i] = next++;
    lists.emplace_back(s.node, std::move(ids));
  }
  return TokenSpace(next, std::move(lists));
}

TokenSpace::TokenSpace(std::uint32_t k,
                       std::vector<std::pair<NodeId, std::vector<TokenId>>> sources)
    : k_(k) {
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  owner_of_.assign(k_, kNoIndex);
  std::uint32_t assigned = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto& [node, ids] = sources[i];
    DG_CHECK(node != kNoNode);
    DG_CHECK(!ids.empty());
    if (i > 0) DG_CHECK(sources[i - 1].first < node);  // distinct, sorted
    std::sort(ids.begin(), ids.end());
    for (const TokenId t : ids) {
      DG_CHECK(t < k_);
      DG_CHECK(owner_of_[t] == kNoIndex);
      owner_of_[t] = static_cast<std::uint32_t>(i);
      ++assigned;
    }
    nodes_.push_back(node);
    tokens_.push_back(std::move(ids));
  }
  DG_CHECK(assigned == k_);  // the lists partition 0..k-1
  if (!nodes_.empty()) {
    index_of_.assign(std::size_t{nodes_.back()} + 1, kNoIndex);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      index_of_[nodes_[i]] = static_cast<std::uint32_t>(i);
    }
  }
}

NodeId TokenSpace::source_node(std::size_t i) const {
  DG_CHECK(i < nodes_.size());
  return nodes_[i];
}

const std::vector<TokenId>& TokenSpace::tokens_of(std::size_t i) const {
  DG_CHECK(i < tokens_.size());
  return tokens_[i];
}

std::uint32_t TokenSpace::count_of(std::size_t i) const {
  DG_CHECK(i < tokens_.size());
  return static_cast<std::uint32_t>(tokens_[i].size());
}

std::size_t TokenSpace::source_of_token(TokenId t) const {
  DG_CHECK(t < k_);
  return owner_of_[t];
}

std::vector<KnowledgeSet> TokenSpace::initial_knowledge(std::size_t n) const {
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k_));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    DG_CHECK(nodes_[i] < n);
    for (const TokenId t : tokens_[i]) knowledge[nodes_[i]].set(t);
  }
  return knowledge;
}

std::vector<KnowledgeSet> one_holder_per_token(std::size_t n, std::size_t k,
                                               Rng& rng) {
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  return init;
}

}  // namespace dyngossip
