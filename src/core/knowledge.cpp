#include "core/knowledge.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dyngossip {

const std::pair<NodeId, TokenId>* find_request(const RequestList& list, NodeId w) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), w,
      [](const std::pair<NodeId, TokenId>& e, NodeId x) { return e.first < x; });
  return (it != list.end() && it->first == w) ? &*it : nullptr;
}

void carry_surviving_requests(RequestList& fresh, const RequestList& surviving,
                              KnowledgeSet& in_flight) {
  std::sort(fresh.begin(), fresh.end());
  const auto fresh_end = static_cast<std::ptrdiff_t>(fresh.size());
  for (const auto& [w, tok] : surviving) {
    in_flight.reset(tok);
    const auto it = std::lower_bound(
        fresh.begin(), fresh.begin() + fresh_end, w,
        [](const std::pair<NodeId, TokenId>& e, NodeId x) { return e.first < x; });
    if (it == fresh.begin() + fresh_end || it->first != w) {
      fresh.push_back({w, tok});
    }
  }
  // The appended tail inherits surviving's order (sorted), so one linear
  // merge restores global order.
  std::inplace_merge(fresh.begin(), fresh.begin() + fresh_end, fresh.end());
}

const char* edge_class_name(EdgeClass c) noexcept {
  switch (c) {
    case EdgeClass::kNew:
      return "new";
    case EdgeClass::kIdle:
      return "idle";
    case EdgeClass::kContributive:
      return "contributive";
  }
  return "?";
}

template <typename InsertedAt>
void EdgeClassifier::merge(Round r, std::span<const NodeId> neighbors,
                           InsertedAt&& inserted_at) {
  DG_CHECK(r > round_);
  DG_DCHECK(std::is_sorted(neighbors.begin(), neighbors.end()));
  const Round last = round_;
  round_ = r;
  std::swap(neighbors_, prev_neighbors_);
  std::swap(inserted_, prev_inserted_);
  std::swap(contributed_, prev_contributed_);
  neighbors_.assign(neighbors.begin(), neighbors.end());
  inserted_.resize(neighbors.size());
  contributed_.resize(neighbors.size());

  // Linear merge of two sorted lists: edges present throughout carry their
  // record, vanished edges are dropped (a later re-insertion starts fresh,
  // implementing the "last insertion" semantics), other edges start fresh.
  std::size_t p = 0;
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    const NodeId w = neighbors_[i];
    while (p < prev_neighbors_.size() && prev_neighbors_[p] < w) ++p;
    const bool stored = p < prev_neighbors_.size() && prev_neighbors_[p] == w;
    const Round ins = inserted_at(w, stored);
    if (stored && ins <= last) {
      inserted_[i] = prev_inserted_[p];
      contributed_[i] = prev_contributed_[p];
    } else {
      inserted_[i] = ins;
      contributed_[i] = 0;
    }
    if (stored) ++p;
  }
}

void EdgeClassifier::begin_round(Round r, std::span<const NodeId> neighbors) {
  // Unchanged neighborhood: every record carries over as it stands, which
  // is what the merge would rebuild.
  if (std::ranges::equal(neighbors, neighbors_)) {
    DG_CHECK(r > round_);
    round_ = r;
    return;
  }
  // Judged against the previous call alone: a stored edge counts as
  // present since then, any other as inserted now.
  const Round last = round_;
  merge(r, neighbors, [last, r](NodeId, bool stored) { return stored ? last : r; });
}

void EdgeClassifier::resync(Round r, std::span<const NodeId> neighbors, NodeId self,
                            const DynamicGraphTracker& tracker) {
  DG_CHECK(tracker.rounds() == r);
  merge(r, neighbors, [&tracker, self](NodeId w, bool) {
    const Round ins = tracker.insertion_round(edge_key(self, w));
    DG_DCHECK(ins != kNoRound);
    return ins;
  });
}

std::size_t EdgeClassifier::slot_of(NodeId w) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), w);
  if (it == neighbors_.end() || *it != w) return kNoSlot;
  return static_cast<std::size_t>(it - neighbors_.begin());
}

EdgeClass EdgeClassifier::classify(NodeId w, bool token_arriving_now) const {
  const std::size_t slot = slot_of(w);
  DG_CHECK(slot != kNoSlot);
  return classify_slot(slot, token_arriving_now);
}

void EdgeClassifier::note_learning_over(NodeId w) {
  const std::size_t slot = slot_of(w);
  // The sender may already have vanished from our view only if delivery and
  // removal raced; in this engine delivery happens at the end of the round
  // the edge was present, so the edge must still be live.
  DG_CHECK(slot != kNoSlot);
  contributed_[slot] = 1;
}

Round EdgeClassifier::insertion_round(NodeId w) const {
  const std::size_t slot = slot_of(w);
  return slot == kNoSlot ? kNoRound : inserted_[slot];
}

}  // namespace dyngossip
