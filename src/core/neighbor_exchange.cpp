#include "core/neighbor_exchange.hpp"

#include "common/check.hpp"

namespace dyngossip {

NeighborExchangeNode::NeighborExchangeNode(NodeId self, std::size_t n,
                                           std::size_t k,
                                           const KnowledgeSet& initial)
    : self_(self), k_(k), tokens_(k) {
  DG_CHECK(self < n);
  DG_CHECK(initial.size() == k);
  for (const std::size_t t : initial.set_bits()) {
    tokens_.set(t);
    order_.push_back(static_cast<TokenId>(t));
  }
}

void NeighborExchangeNode::send(Round /*r*/, std::span<const NodeId> neighbors,
                                Outbox& out) {
  for (const NodeId w : neighbors) {
    std::size_t& cursor = sent_up_to_[w];
    if (cursor < order_.size()) {
      out.send(w, Message::token_msg(order_[cursor]));
      ++cursor;
    }
  }
}

void NeighborExchangeNode::on_receive(Round /*r*/, NodeId from, const Message& m) {
  DG_CHECK(m.type == MsgType::kToken);
  DG_CHECK(m.token < k_);
  if (tokens_.set(m.token)) {
    order_.push_back(m.token);
  }
  // The sender obviously holds this token: skipping a re-send back to it
  // would be an optimization the trivial baseline deliberately omits — the
  // point is to measure the undisciplined O(n²) push.
  (void)from;
}

std::vector<std::unique_ptr<UnicastAlgorithm>> NeighborExchangeNode::make_all(
    std::size_t n, std::size_t k, const std::vector<KnowledgeSet>& initial) {
  DG_CHECK(initial.size() == n);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<NeighborExchangeNode>(v, n, k, initial[v]));
  }
  return nodes;
}

}  // namespace dyngossip
