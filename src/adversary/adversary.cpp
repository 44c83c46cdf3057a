#include "adversary/adversary.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace dyngossip {

namespace {
// Storage for the must-not-be-reached default next_graph (keeps the
// reference-returning contract without a per-adversary dummy member).
const Graph kEmptyGraph(0);
}  // namespace

const Graph& Adversary::broadcast_round(const BroadcastRoundView& view) {
  return next_graph(view.round);
}

const Graph& Adversary::unicast_round(const UnicastRoundView& view) {
  return next_graph(view.round);
}

void Adversary::on_disconnected(Round r, std::size_t components) {
  std::fprintf(stderr, "round %u graph has %zu connected components\n",
               static_cast<unsigned>(r), components);
  DG_CHECK(false && "every round graph must be connected");
}

const Graph& Adversary::next_graph(Round /*r*/) {
  // Reaching here means a subclass neither overrode the round methods nor
  // provided a generator — a wiring bug, not a runtime condition.
  DG_CHECK(false && "adversary must implement next_graph or override round methods");
  return kEmptyGraph;
}

const Graph& ObliviousAdversary::broadcast_round(const BroadcastRoundView& view) {
  return next_graph(view.round);
}

const Graph& ObliviousAdversary::unicast_round(const UnicastRoundView& view) {
  return next_graph(view.round);
}

}  // namespace dyngossip
