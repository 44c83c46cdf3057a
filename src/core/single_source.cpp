#include "core/single_source.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

SingleSourceNode::SingleSourceNode(NodeId self, const SingleSourceConfig& cfg)
    : self_(self),
      cfg_(cfg),
      tokens_(cfg.k),
      informed_(cfg.n),
      known_complete_(cfg.n),
      in_flight_(cfg.k) {
  DG_CHECK(self < cfg.n);
  DG_CHECK(cfg.source < cfg.n);
  if (self == cfg.source) tokens_.set_all();
}

void SingleSourceNode::send(Round r, std::span<const NodeId> neighbors, Outbox& out) {
  classifier_.begin_round(r, neighbors);

  if (complete()) {
    // Answer last round's requests first (so the per-neighbor if/else of
    // Algorithm 1 holds: a requester necessarily already knows our
    // completeness, so it is never also an announcement target).
    for (const auto& [requester, token] : pending_answers_) {
      if (std::binary_search(neighbors.begin(), neighbors.end(), requester)) {
        out.send(requester, Message::token_msg(token, cfg_.source));
      }
    }
    pending_answers_.clear();
    sent_requests_.clear();
    for (const NodeId u : neighbors) {
      if (!informed_.test(u)) {
        out.send(u, Message::completeness(cfg_.source, cfg_.k));
        informed_.set(u);
      }
    }
    return;
  }

  // Incomplete nodes never receive requests (nobody believes them complete).
  DG_CHECK(pending_answers_.empty());

  // Tokens already in flight: requested last round over an edge that
  // survived into this round.  The paper notes v can know these arrive by
  // the end of round r; they are excluded from this round's requests and
  // count as contributions for edge classification.  in_flight_ is empty on
  // entry (the invariant restored at the bottom of this function) and
  // surviving_ stays sorted because sent_requests_ is.
  surviving_.clear();
  for (const auto& [w, tok] : sent_requests_) {
    if (std::binary_search(neighbors.begin(), neighbors.end(), w)) {
      in_flight_.set(tok);
      surviving_.push_back({w, tok});
    }
  }

  // Partition eligible edges (to known-complete neighbors) by class.
  classifier_.partition(
      surviving_, [this](NodeId w) { return known_complete_.test(w); }, by_class_);

  // Assign one distinct request per edge in the configured class priority
  // (Algorithm 1: new, then idle, then contributive).  The missing-token
  // list b_1 < b_2 < ... (line 7, minus in-flight) is never materialized:
  // the bitset cursor is advanced lazily, so a round's cost is O(deg)
  // cursor steps instead of O(k) — the difference between O(nk) and
  // O(n + m) work per engine round.
  next_requests_.clear();
  auto missing = tokens_.unset_bits().begin();
  const auto missing_end = tokens_.unset_bits().end();
  const auto next_missing = [&]() -> TokenId {
    while (missing != missing_end && in_flight_.test(*missing)) ++missing;
    if (missing == missing_end) return kNoToken;
    const auto b = static_cast<TokenId>(*missing);
    ++missing;
    return b;
  };
  static constexpr EdgeClass kOrders[3][3] = {
      {EdgeClass::kNew, EdgeClass::kIdle, EdgeClass::kContributive},
      {EdgeClass::kNew, EdgeClass::kContributive, EdgeClass::kIdle},
      {EdgeClass::kIdle, EdgeClass::kContributive, EdgeClass::kNew},
  };
  const EdgeClass(&priority)[3] =
      kOrders[static_cast<std::size_t>(cfg_.priority)];
  for (const EdgeClass c : priority) {
    for (const NodeId w : by_class_[static_cast<std::size_t>(c)]) {
      const TokenId b = next_missing();
      if (b == kNoToken) break;
      out.send(w, Message::request(b, cfg_.source));
      next_requests_.push_back({w, b});
      ++requests_by_class_[static_cast<std::size_t>(c)];
    }
  }
  // Edges with an in-flight token keep their pending entry so next round's
  // in-flight computation (and classification) still sees them if no fresh
  // request was assigned to that edge this round; the helper also restores
  // the in_flight_ empty-between-rounds invariant.
  carry_surviving_requests(next_requests_, surviving_, in_flight_);
  std::swap(sent_requests_, next_requests_);
}

void SingleSourceNode::on_receive(Round /*r*/, NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kToken: {
      DG_CHECK(m.token < cfg_.k);
      if (tokens_.set(m.token)) {
        classifier_.note_learning_over(from);
      }
      // Arrived: no longer in flight from this neighbor.
      const auto* entry = find_request(sent_requests_, from);
      if (entry != nullptr && entry->second == m.token) {
        sent_requests_.erase(sent_requests_.begin() +
                             (entry - sent_requests_.data()));
      }
      break;
    }
    case MsgType::kCompleteness: {
      DG_CHECK(m.source == cfg_.source);
      DG_CHECK(m.aux == cfg_.k);
      known_complete_.set(from);
      break;
    }
    case MsgType::kRequest: {
      // Only complete nodes are believed complete, and completeness is
      // monotone, so we can always serve this next round.
      DG_CHECK(complete());
      DG_CHECK(m.token < cfg_.k);
      pending_answers_.emplace_back(from, m.token);
      break;
    }
    case MsgType::kControl:
      DG_CHECK(false && "single-source protocol has no control messages");
      break;
  }
}

bool SingleSourceNode::is_bridge_node() const {
  if (complete()) return false;
  for (const NodeId w : classifier_.neighbors()) {
    if (known_complete_.test(w)) return true;
  }
  return false;
}

std::vector<std::unique_ptr<UnicastAlgorithm>> SingleSourceNode::make_all(
    const SingleSourceConfig& cfg) {
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.reserve(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<SingleSourceNode>(v, cfg));
  }
  return nodes;
}

std::vector<KnowledgeSet> SingleSourceNode::initial_knowledge(
    const SingleSourceConfig& cfg) {
  std::vector<KnowledgeSet> knowledge(cfg.n, KnowledgeSet(cfg.k));
  knowledge[cfg.source].set_all();
  return knowledge;
}

}  // namespace dyngossip
