// The engines' per-round graph ingest, shared by all three engines.
//
// Every round an engine takes the adversary's G_r into a CSR snapshot,
// checks it is connected, and advances the topology tracker (E⁺/E⁻, TC,
// insertion rounds).  RoundIngest is that sequence, written once.
//
// Two paths produce the same snapshot and the same diff:
//   - Delta path.  The adversary committed G_r (Graph::commit) from the
//     revision this ingest's snapshot holds, which is G_{r-1} when the same
//     adversary returned it last round.  The graph's net delta is bucketed
//     by node once; RoundGraphView::rebuild patches the snapshot and the
//     tracker its insertion rounds, each copying untouched blocks in runs
//     and merging only the touched ones.  The delta itself is the diff.
//   - Full path.  Otherwise (round 1, the first round of a later phase's
//     engine, an adversary that does not commit, such as fresh graphs
//     each round and the full-graph adversaries, or a graph altered after
//     its commit): the O(n + m) rebuild plus the tracker's block-by-block
//     diff.
// The connectivity BFS runs on the snapshot either way; it is exact, and
// O(n + m) only in the worst case (see ConnectivityChecker).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/connectivity.hpp"
#include "graph/dynamic_tracker.hpp"
#include "graph/graph.hpp"
#include "graph/round_view.hpp"

namespace dyngossip {

/// One engine's round ingest: snapshot, connectivity check, tracker.
class RoundIngest {
 public:
  /// `tracker` must outlive the ingest (engines may share one across
  /// phases; a new ingest always starts on the full path).
  explicit RoundIngest(DynamicGraphTracker& tracker) : tracker_(&tracker) {}

  /// Ingests round r's graph g and returns the tracker's diff for the
  /// round.  `on_disconnected(r, components)` is called when g is
  /// disconnected and must not return.
  template <typename OnDisconnected>
  const GraphDiff& ingest(const Graph& g, Round r, OnDisconnected&& on_disconnected) {
    view_.rebuild(g);
    if (view_.patched_from() != 0) {
      delta_rounds_total_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t components = connectivity_.components(view_).count;
    if (components > 1) on_disconnected(r, components);
    DG_CHECK(components <= 1);
    return tracker_->advance(view_, r);
  }

  /// The snapshot of the last ingested round.
  [[nodiscard]] const RoundGraphView& view() const noexcept { return view_; }

  /// Rounds ingested on the delta path by every ingest in this process
  /// (observability only: read by tests and benchmarks, never by a run).
  [[nodiscard]] static std::uint64_t delta_rounds_total() noexcept {
    return delta_rounds_total_.load(std::memory_order_relaxed);
  }

 private:
  DynamicGraphTracker* tracker_;
  RoundGraphView view_;
  ConnectivityChecker connectivity_;
  static std::atomic<std::uint64_t> delta_rounds_total_;
};

}  // namespace dyngossip
