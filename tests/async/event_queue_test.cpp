// EventQueue: differential test of the calendar queue against a sorted
// reference (std::set under event_before) over random push/pop sequences —
// exact cross-node time ties, events several ring revolutions ahead, pushes
// into the loaded slot, n = 1, rates 1e-3/1/1e3 and extreme rates — plus
// the death test for a push earlier than the current slot.
#include "async/event_queue.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace dyngossip {
namespace {

struct Before {
  bool operator()(const ActivationEvent& a, const ActivationEvent& b) const {
    return event_before(a, b);
  }
};

bool same_event(const ActivationEvent& a, const ActivationEvent& b) {
  return a.time == b.time && a.node == b.node && a.seq == b.seq;
}

/// Drives `ops` random operations on an EventQueue(n, queue_rate) and a
/// sorted reference, with event times drawn for clocks of rate
/// `time_rate`; every top()/pop() must return the reference minimum.
/// Returns the number of pops checked.
std::size_t run_differential(std::size_t n, double queue_rate, double time_rate,
                             std::uint64_t seed, std::size_t ops) {
  EventQueue queue(n, queue_rate);
  std::set<ActivationEvent, Before> reference;
  std::vector<NodeId> idle;  // nodes without a pending event
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) idle.push_back(v);
  Rng rng(seed);
  std::uint64_t seq = 0;
  double now = 0.0;  // time of the last top()/pop() result
  // One mean gap of the whole system, and the ring span of the documented
  // layout (bit_ceil(n) slots of 16 / (n·λ)), in time units.
  const double mean_gap = 1.0 / (static_cast<double>(n) * time_rate);
  const double ring_span =
      static_cast<double>(std::bit_ceil(n)) * 16.0 * mean_gap;
  // A power-of-two grid below the mean gap: sums of grid multiples are
  // exact, so pushes on it produce exact cross-node ties.
  const double grid = std::ldexp(1.0, std::ilogb(mean_gap) - 2);
  std::size_t pops = 0;

  const auto push = [&](double time) {
    const std::size_t i = rng.next_below(idle.size());
    const NodeId v = idle[i];
    idle[i] = idle.back();
    idle.pop_back();
    const ActivationEvent e{time, v, seq++};
    queue.push(e);
    reference.insert(e);
  };

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.next_below(16);
    if (!idle.empty() && (kind < 8 || reference.empty())) {
      double time = now;
      switch (rng.next_below(6)) {
        case 0:  // exact tie with the last popped time
          break;
        case 1:  // on the grid: exact ties with other grid pushes
          time = grid * (std::ceil(now / grid) +
                         static_cast<double>(rng.next_below(64)));
          break;
        case 2:  // inside the loaded slot (well below one slot width)
          time = now + mean_gap * rng.uniform01();
          break;
        case 3:  // one to five ring revolutions ahead of a pending event
          if (!reference.empty()) {
            auto it = reference.begin();
            std::advance(it, rng.next_below(reference.size()));
            time = std::max(now, it->time) +
                   ring_span * static_cast<double>(1 + rng.next_below(5));
          }
          break;
        default:  // a node's own Exp(time_rate) gap
          time = now - std::log1p(-rng.uniform01()) / time_rate;
          break;
      }
      push(time);
    } else if (!reference.empty()) {
      const ActivationEvent want = *reference.begin();
      if (kind == 15) {  // peek only
        const ActivationEvent& got = queue.top();
        EXPECT_TRUE(same_event(got, want)) << "peek after " << pops << " pops";
        now = got.time;
        continue;
      }
      const ActivationEvent got = queue.pop();
      reference.erase(reference.begin());
      idle.push_back(got.node);
      now = got.time;
      ++pops;
      if (!same_event(got, want)) {
        ADD_FAILURE() << "pop " << pops << ": got (" << got.time << ", "
                      << got.node << ", " << got.seq << ") want (" << want.time
                      << ", " << want.node << ", " << want.seq << ")";
        return pops;
      }
    }
    EXPECT_EQ(queue.size(), reference.size());
  }
  // Drain: the tail must come out in order too.
  while (!reference.empty()) {
    const ActivationEvent want = *reference.begin();
    reference.erase(reference.begin());
    const ActivationEvent got = queue.pop();
    ++pops;
    if (!same_event(got, want)) {
      ADD_FAILURE() << "drain pop " << pops << ": got node " << got.node
                    << " want node " << want.node;
      return pops;
    }
  }
  EXPECT_TRUE(queue.empty());
  return pops;
}

TEST(EventQueue, MatchesTheSortedReference) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    for (const double rate : {1e-3, 1.0, 1e3}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " rate=" << rate << " seed=" << seed);
        EXPECT_GT(run_differential(n, rate, rate, seed, 20'000), 5'000u);
      }
    }
  }
}

TEST(EventQueue, ExtremeRatesKeepTheOrder) {
  // An infinite slot product (huge rate) or a zero one (tiny rate) puts
  // every event into one slot; the order must not change.
  for (const double rate : {std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::denorm_min()}) {
    SCOPED_TRACE(::testing::Message() << "rate=" << rate);
    EXPECT_GT(run_differential(64, rate, 1.0, 3, 5'000), 1'000u);
  }
}

TEST(EventQueue, SteadyStateRepushMatchesTheReference) {
  // The engine's pattern: one pending event per node, each pop re-pushes
  // the same node one Exp(λ) gap later.
  const std::size_t n = 2048;
  const double rate = 1.0;
  EventQueue queue(n, rate);
  std::set<ActivationEvent, Before> reference;
  Rng rng(11);
  std::uint64_t seq = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const ActivationEvent e{-std::log1p(-rng.uniform01()) / rate, v, seq++};
    queue.push(e);
    reference.insert(e);
  }
  for (int i = 0; i < 200'000; ++i) {
    const ActivationEvent got = queue.pop();
    const ActivationEvent want = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(got.node, want.node) << "pop " << i;
    ASSERT_EQ(got.seq, want.seq) << "pop " << i;
    const ActivationEvent next{
        got.time - std::log1p(-rng.uniform01()) / rate, got.node, seq++};
    queue.push(next);
    reference.insert(next);
  }
}

TEST(EventQueueDeathTest, PushEarlierThanTheCurrentSlotFails) {
  // n = 4 at rate 1: slots are 4 time units wide.
  EventQueue queue(4, 1.0);
  queue.push({10.0, 0, 0});
  (void)queue.pop();  // slot 2 is now current
  EXPECT_DEATH(queue.push({1.0, 1, 1}), "slot >= current_");
}

}  // namespace
}  // namespace dyngossip
