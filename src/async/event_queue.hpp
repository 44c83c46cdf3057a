// Deterministic calendar event queue for the asynchronous engine.
//
// The queue orders timestamped activation events by (time, node, seq)
// ascending — the async plane's tie-breaking contract.  Times are doubles
// (per-node prefix sums of exponential gaps, each node summed in its own
// fixed order, so the values themselves are bit-deterministic); exact ties
// across nodes are broken by node id, and the monotone per-push sequence
// number makes the order a strict total order even in pathological cases.
// Pop order is therefore a pure function of the pushed set — never of the
// queue's layout, hash seeds, or thread count.
//
// Layout: a node-indexed calendar queue.  The engine keeps exactly one
// pending event per node, so each node stores its own pending event
// (time_, seq_) and an intrusive link next_ into a ring of B = bit_ceil(n)
// slot lists.  Slot s holds the times [s·w, (s+1)·w) with w = 16 / (n·λ):
// ~16 events per slot, and the ring spans at least 16 mean gaps of one
// node.  Slot s lives in ring list s mod B, so a list can also hold events
// one or more revolutions ahead.
//
// Why the pop order is exact.  slot(t) = floor(t / w) is monotone in t,
// so every event of slot s precedes every event of a later slot under
// (time, node, seq).  The queue drains slots in increasing order: loading
// slot s moves exactly the events with slot(t) = s out of its list into a
// small vector sorted by event_before, and leaves later-revolution events
// linked in place.  A push into the loaded slot is a sorted insert, a push
// into a later slot is linked, and a push into an earlier slot would break
// time monotonicity, so it fails a DG_CHECK.  Each pop thus returns the
// minimum of the pending set under event_before.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dyngossip {

/// One scheduled node activation.
struct ActivationEvent {
  double time = 0.0;       ///< absolute clock time of the activation
  NodeId node = kNoNode;   ///< the node whose clock fires
  std::uint64_t seq = 0;   ///< monotone push id (final tie-break)
};

/// Strict total order: earliest first, ties by node, then push sequence.
[[nodiscard]] inline bool event_before(const ActivationEvent& a,
                                       const ActivationEvent& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.node != b.node) return a.node < b.node;
  return a.seq < b.seq;
}

/// Min-queue of activation events for nodes 0..n-1, at most one pending
/// event per node (see the file comment for the layout and the order).
class EventQueue {
 public:
  /// A queue for `n` nodes whose clocks tick at `rate` per node.  The rate
  /// only sizes the slots; any rate > 0 gives the same pop order.
  EventQueue(std::size_t n, double rate)
      : slots_per_time_(static_cast<double>(n) * rate / kEventsPerSlot),
        mask_(std::bit_ceil(n) - 1),
        head_(std::bit_ceil(n), kNoNode),
        next_(n, kNoNode),
        time_(n, 0.0),
        seq_(n, 0) {
    DG_CHECK(rate > 0.0);
  }

  /// Schedules `e`.  `e.node` must be < n and have no pending event, and
  /// `e.time` must not fall before the slot of the last popped event.
  void push(const ActivationEvent& e) {
    DG_DCHECK(e.node < next_.size());
    DG_CHECK(e.time >= 0.0);
    const std::uint64_t slot = slot_of(e.time);
    DG_CHECK(slot >= current_);  // time is monotone
    ++size_;
    if (slot == current_) {
      loaded_.insert(
          std::upper_bound(loaded_.begin(), loaded_.end(), e, After{}), e);
      return;
    }
    time_[e.node] = e.time;
    seq_[e.node] = e.seq;
    NodeId& head = head_[slot & mask_];
    next_[e.node] = head;
    head = e.node;
  }

  /// The earliest event (by the (time, node, seq) order).  Loads the next
  /// non-empty slot once the current one is drained, hence non-const.
  [[nodiscard]] const ActivationEvent& top() {
    DG_DCHECK(size_ > 0);
    if (loaded_.empty()) load_next_slot();
    return loaded_.back();
  }

  /// Removes and returns the earliest event.
  ActivationEvent pop() {
    const ActivationEvent e = top();
    loaded_.pop_back();
    --size_;
    return e;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// Mean events per slot across all n clocks.
  static constexpr double kEventsPerSlot = 16.0;
  /// Slot cap: every product at or past it (huge times, or an infinite or
  /// NaN product under an extreme rate) maps here.  The map stays monotone
  /// in t, so such events share one slot and still pop in event_before
  /// order; only the per-slot cost grows.  2^62 converts exactly.
  static constexpr std::uint64_t kLastSlot = std::uint64_t{1} << 62;

  /// Sorted-vector order ("a sorts after b"): latest first, so the
  /// earliest event is back().
  struct After {
    [[nodiscard]] bool operator()(const ActivationEvent& a,
                                  const ActivationEvent& b) const noexcept {
      return event_before(b, a);
    }
  };

  [[nodiscard]] std::uint64_t slot_of(double t) const noexcept {
    const double q = t * slots_per_time_;
    return q < static_cast<double>(kLastSlot) ? static_cast<std::uint64_t>(q)
                                              : kLastSlot;
  }

  /// Unlinks every event of `slot` from its ring list into loaded_.
  void collect(std::uint64_t slot) {
    NodeId* link = &head_[slot & mask_];
    while (*link != kNoNode) {
      const NodeId v = *link;
      if (slot_of(time_[v]) == slot) {
        loaded_.push_back({time_[v], v, seq_[v]});
        *link = next_[v];
      } else {
        link = &next_[v];  // a later revolution: stays linked
      }
    }
  }

  /// Advances current_ to the next slot holding an event and loads it.
  /// Every slot up to current_ is drained, so all pending events are
  /// linked in later slots.
  void load_next_slot() {
    DG_DCHECK(current_ < kLastSlot);
    for (std::size_t step = 0; step < head_.size() && loaded_.empty(); ++step) {
      collect(++current_);
    }
    if (loaded_.empty()) {
      // A whole revolution was empty: every event lies at least one
      // revolution ahead.  Jump to the earliest pending slot.
      std::uint64_t earliest = kLastSlot;
      for (NodeId head : head_) {
        for (NodeId v = head; v != kNoNode; v = next_[v]) {
          earliest = std::min(earliest, slot_of(time_[v]));
        }
      }
      current_ = earliest;
      collect(current_);
    }
    std::sort(loaded_.begin(), loaded_.end(), After{});
  }

  double slots_per_time_;        ///< 1 / w
  std::uint64_t mask_;           ///< ring size B - 1
  std::uint64_t current_ = 0;    ///< the loaded slot
  std::size_t size_ = 0;         ///< pending events
  std::vector<NodeId> head_;     ///< ring list heads, one per slot
  std::vector<NodeId> next_;     ///< per-node link to the next list member
  std::vector<double> time_;     ///< per-node pending time (while linked)
  std::vector<std::uint64_t> seq_;  ///< per-node pending seq (while linked)
  std::vector<ActivationEvent> loaded_;  ///< slot current_, latest first
};

}  // namespace dyngossip
