#include "adversary/static_adversary.hpp"

#include "common/check.hpp"
#include "graph/connectivity.hpp"

namespace dyngossip {

StaticAdversary::StaticAdversary(Graph g) : graph_(std::move(g)) {
  DG_CHECK(is_connected(graph_));
  graph_.commit();  // one revision for every round
}

const Graph& StaticAdversary::next_graph(Round /*r*/) { return graph_; }

}  // namespace dyngossip
