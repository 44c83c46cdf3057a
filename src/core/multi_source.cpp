#include "core/multi_source.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

MultiSourceNode::MultiSourceNode(NodeId self, const MultiSourceConfig& cfg,
                                 const KnowledgeSet& initial_tokens)
    : self_(self),
      cfg_(cfg),
      tokens_(cfg.space->total_tokens()),
      in_flight_(cfg.space->total_tokens()) {
  DG_CHECK(cfg_.space != nullptr);
  DG_CHECK(self < cfg_.n);
  DG_CHECK(initial_tokens.size() == tokens_.size());
  per_source_.resize(cfg_.space->num_sources());
  for (auto& ps : per_source_) {
    ps.informed = KnowledgeSet(cfg_.n);
    ps.announcers = KnowledgeSet(cfg_.n);
  }
  // A source knows (and is complete w.r.t.) itself at time 0; other nodes
  // discover sources through announcements.
  const std::size_t own = cfg_.space->index_of_node(self);
  if (own != kNotASource) per_source_[own].known = true;
  for (const std::size_t t : initial_tokens.set_bits()) {
    account_token(static_cast<TokenId>(t));
  }
}

void MultiSourceNode::account_token(TokenId t) {
  if (!tokens_.set(t)) return;
  const std::size_t x = cfg_.space->source_of_token(t);
  PerSource& ps = per_source_[x];
  ++ps.held;
  if (ps.held == cfg_.space->count_of(x)) ps.complete = true;
}

void MultiSourceNode::send(Round r, std::span<const NodeId> neighbors, Outbox& out) {
  classifier_.begin_round(r, neighbors);
  const std::size_t s = per_source_.size();

  // Task 1 — completeness announcements: per edge, the minimum complete
  // source this neighbor has not yet been informed about.
  for (const NodeId w : neighbors) {
    for (std::size_t x = 0; x < s; ++x) {
      if (!per_source_[x].complete || per_source_[x].informed.test(w)) continue;
      out.send(w, Message::completeness(cfg_.space->source_node(x),
                                        cfg_.space->count_of(x)));
      per_source_[x].informed.set(w);
      break;  // one announcement per edge per round
    }
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
  // complete neighbor, exactly as in Algorithm 1.
  std::size_t target = kNotASource;
  for (std::size_t x = 0; x < s; ++x) {
    if (!per_source_[x].complete && per_source_[x].announcers.count() > 0) {
      target = x;
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
    const PerSource& ps = per_source_[target];
    // Lazy missing-token selection over the target source's token list (the
    // analogue of Algorithm 1's b_1 < b_2 < ... walk): tokens are consumed
    // only as requests are assigned, O(deg) steps per round amortized.
    const std::span<const TokenId> pool = cfg_.space->tokens_of(target);
    std::size_t pos = 0;
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
      per_source_[x].known = true;
      per_source_[x].announcers.set(from);
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
