#include "core/multi_source.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace dyngossip {

namespace {

constexpr std::uint64_t bit_of(std::size_t x) { return std::uint64_t{1} << (x & 63); }

/// Fibonacci hash of a node id (the row index's probe start).
constexpr std::size_t hash_node(NodeId w) {
  return static_cast<std::size_t>((std::uint64_t{w} * 0x9e3779b97f4a7c15ull) >> 32);
}

}  // namespace

MultiSourceNode::MultiSourceNode(NodeId self, const MultiSourceConfig& cfg,
                                 const KnowledgeSet& initial_tokens)
    : cfg_(cfg),
      tokens_(cfg.space->total_tokens()),
      words_((cfg.space->num_sources() + 63) / 64),
      complete_bits_(words_, 0),
      requestable_bits_(words_, 0),
      in_flight_(cfg.space->total_tokens()) {
  DG_CHECK(cfg_.space != nullptr);
  DG_CHECK(self < cfg_.n);
  DG_CHECK(initial_tokens.size() == tokens_.size());
  per_source_.resize(cfg_.space->num_sources());
  for (auto& ps : per_source_) ps.announcers = KnowledgeSet(cfg_.n);
  for (const std::size_t t : initial_tokens.set_bits()) {
    account_token(static_cast<TokenId>(t));
  }
}

void MultiSourceNode::account_token(TokenId t) {
  if (!tokens_.set(t)) return;
  const std::size_t x = cfg_.space->source_of_token(t);
  PerSource& ps = per_source_[x];
  ++ps.held;
  if (ps.held < cfg_.space->count_of(x)) return;
  // x joins I_v for good (tokens are never forgotten): it is no longer
  // requestable, and every neighbor is owed its announcement again.
  complete_bits_[x >> 6] |= bit_of(x);
  requestable_bits_[x >> 6] &= ~bit_of(x);
  std::fill(saturated_.begin(), saturated_.end(), std::uint8_t{0});
}

std::uint32_t MultiSourceNode::row_of(NodeId w) {
  if (2 * (row_owner_.size() + 1) > row_index_.size()) {
    // Grow the open-addressing index to keep its load at most 1/2.
    row_index_.assign(std::max<std::size_t>(16, 2 * row_index_.size()), 0);
    const std::size_t mask = row_index_.size() - 1;
    for (std::uint32_t row = 0; row < row_owner_.size(); ++row) {
      std::size_t h = hash_node(row_owner_[row]) & mask;
      while (row_index_[h] != 0) h = (h + 1) & mask;
      row_index_[h] = row + 1;
    }
  }
  const std::size_t mask = row_index_.size() - 1;
  for (std::size_t h = hash_node(w) & mask;; h = (h + 1) & mask) {
    const std::uint32_t e = row_index_[h];
    if (e == 0) {
      row_owner_.push_back(w);
      saturated_.push_back(0);
      announced_.resize(announced_.size() + words_, 0);
      row_index_[h] = static_cast<std::uint32_t>(row_owner_.size());
      return static_cast<std::uint32_t>(row_owner_.size() - 1);
    }
    if (row_owner_[e - 1] == w) return e - 1;
  }
}

void MultiSourceNode::bind_rows(std::span<const NodeId> neighbors,
                                std::span<const NodeId> prev) {
  rebound_.resize(neighbors.size());
  std::size_t j = 0;
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const NodeId w = neighbors[slot];
    while (j < prev.size() && prev[j] < w) ++j;
    rebound_[slot] = j < prev.size() && prev[j] == w ? slot_rows_[j] : row_of(w);
  }
  slot_rows_.swap(rebound_);
}

void MultiSourceNode::send(Round r, std::span<const NodeId> neighbors, Outbox& out) {
  // Rows are bound from the first round with I_v ≠ ∅ on (I_v only grows):
  // before it no edge is owed an announcement, and a neighbor met only
  // then needs no row.
  if (!rows_bound_) {
    rows_bound_ = std::ranges::any_of(complete_bits_,
                                      [](std::uint64_t word) { return word != 0; });
    if (rows_bound_) bind_rows(neighbors, {});
  } else if (!std::ranges::equal(neighbors, classifier_.neighbors())) {
    bind_rows(neighbors, classifier_.neighbors());
  }
  classifier_.begin_round(r, neighbors);

  // Task 1 — completeness announcements: per edge, the minimum complete
  // source this neighbor has not yet been informed about: the first set
  // bit of I_v minus the neighbor's row.  A saturated neighbor costs one
  // test.  (slot_rows_ is empty until rows are bound.)
  for (std::size_t slot = 0; slot < slot_rows_.size(); ++slot) {
    const std::uint32_t row = slot_rows_[slot];
    if (saturated_[row] != 0) continue;
    std::uint64_t* const told = &announced_[std::size_t{row} * words_];
    std::size_t i = 0;
    while (i < words_ && (complete_bits_[i] & ~told[i]) == 0) ++i;
    if (i < words_) {
      const std::uint64_t owed = complete_bits_[i] & ~told[i];
      const std::size_t x = i * 64 + static_cast<std::size_t>(std::countr_zero(owed));
      out.send(neighbors[slot], Message::completeness(cfg_.space->source_node(x),
                                                      cfg_.space->count_of(x)));
      told[i] |= owed & (~owed + 1);  // one announcement per edge per round
      if ((owed & (owed - 1)) != 0) continue;  // more owed in this word
      ++i;
      while (i < words_ && (complete_bits_[i] & ~told[i]) == 0) ++i;
      if (i < words_) continue;
    }
    saturated_[row] = 1;
  }

  // Task 2 — answer last round's requests over surviving edges.
  for (const auto& [requester, token] : pending_answers_) {
    if (std::binary_search(neighbors.begin(), neighbors.end(), requester)) {
      const std::size_t x = cfg_.space->source_of_token(token);
      out.send(requester, Message::token_msg(token, cfg_.space->source_node(x)));
    }
  }
  pending_answers_.clear();

  // Task 3 — requests for the minimum incomplete source with a known
  // complete neighbor (the first requestable bit), exactly as in
  // Algorithm 1.
  std::size_t target = kNotASource;
  for (std::size_t i = 0; i < words_; ++i) {
    if (requestable_bits_[i] != 0) {
      target = i * 64 + static_cast<std::size_t>(std::countr_zero(requestable_bits_[i]));
      break;
    }
  }

  // In-flight tokens: requested last round over edges that survived.
  // in_flight_ is empty on entry (the invariant restored below) and
  // surviving_ stays sorted because sent_requests_ is.
  surviving_.clear();
  for (const auto& [w, tok] : sent_requests_) {
    if (std::binary_search(neighbors.begin(), neighbors.end(), w)) {
      in_flight_.set(tok);
      surviving_.push_back({w, tok});
    }
  }

  next_requests_.clear();
  if (target != kNotASource) {
    PerSource& ps = per_source_[target];
    // Lazy missing-token selection over the target source's token list (the
    // analogue of Algorithm 1's b_1 < b_2 < ... walk).  The walk starts at
    // the held-prefix cursor, which only moves forward (tokens are never
    // forgotten), so it skips at most the in-flight tokens and the held
    // tokens past the first gap; tokens are consumed only as requests are
    // assigned.
    const std::span<const TokenId> pool = cfg_.space->tokens_of(target);
    std::size_t pos = ps.first_missing;
    while (pos < pool.size() && tokens_.test(pool[pos])) ++pos;
    ps.first_missing = static_cast<std::uint32_t>(pos);
    const auto next_missing = [&]() -> TokenId {
      while (pos < pool.size() &&
             (tokens_.test(pool[pos]) || in_flight_.test(pool[pos]))) {
        ++pos;
      }
      return pos < pool.size() ? pool[pos++] : kNoToken;
    };
    classifier_.partition(
        surviving_, [&ps](NodeId w) { return ps.announcers.test(w); }, by_class_);
    const EdgeClass priority[3] = {EdgeClass::kNew, EdgeClass::kIdle,
                                   EdgeClass::kContributive};
    for (const EdgeClass c : priority) {
      for (const NodeId w : by_class_[static_cast<std::size_t>(c)]) {
        const TokenId b = next_missing();
        if (b == kNoToken) break;
        out.send(w, Message::request(b, cfg_.space->source_node(target)));
        next_requests_.push_back({w, b});
        ++requests_by_class_[static_cast<std::size_t>(c)];
      }
    }
  }
  // Edges with an in-flight token stay tracked unless they got a fresh
  // request this round; the helper also restores the in_flight_
  // empty-between-rounds invariant.
  carry_surviving_requests(next_requests_, surviving_, in_flight_);
  std::swap(sent_requests_, next_requests_);
}

void MultiSourceNode::on_receive(Round /*r*/, NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kToken: {
      DG_CHECK(m.token < tokens_.size());
      if (!tokens_.test(m.token)) {
        account_token(m.token);
        classifier_.note_learning_over(from);
      }
      const auto* entry = find_request(sent_requests_, from);
      if (entry != nullptr && entry->second == m.token) {
        sent_requests_.erase(sent_requests_.begin() +
                             (entry - sent_requests_.data()));
      }
      break;
    }
    case MsgType::kCompleteness: {
      const std::size_t x = cfg_.space->index_of_node(m.source);
      DG_CHECK(x != kNotASource);
      DG_CHECK(m.aux == cfg_.space->count_of(x));
      per_source_[x].announcers.set(from);
      if (!complete_wrt(x)) requestable_bits_[x >> 6] |= bit_of(x);
      break;
    }
    case MsgType::kRequest: {
      const std::size_t x = cfg_.space->source_of_token(m.token);
      DG_CHECK(complete_wrt(x));  // requests only follow our announcement
      pending_answers_.emplace_back(from, m.token);
      break;
    }
    case MsgType::kControl:
      DG_CHECK(false && "multi-source protocol has no control messages");
      break;
  }
}

std::vector<std::unique_ptr<UnicastAlgorithm>> MultiSourceNode::make_all(
    const MultiSourceConfig& cfg) {
  return make_all_with(cfg, cfg.space->initial_knowledge(cfg.n));
}

std::vector<std::unique_ptr<UnicastAlgorithm>> MultiSourceNode::make_all_with(
    const MultiSourceConfig& cfg, const std::vector<KnowledgeSet>& initial) {
  DG_CHECK(initial.size() == cfg.n);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.reserve(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<MultiSourceNode>(v, cfg, initial[v]));
  }
  return nodes;
}

}  // namespace dyngossip
