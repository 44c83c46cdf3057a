#include "async/clocked_adversary.hpp"

#include "common/check.hpp"

namespace dyngossip {

ClockedAdversary::ClockedAdversary(Adversary& inner, double sigma)
    : inner_(inner), sigma_(sigma) {
  DG_CHECK(sigma_ > 0.0);
}

const Graph& ClockedAdversary::next_round(
    const std::vector<KnowledgeSet>& knowledge) {
  const Round r = ++round_;
  UnicastRoundView view;
  view.round = r;
  view.prev_messages = &no_messages_;
  view.knowledge = &knowledge;
  const Graph& g = inner_.unicast_round(view);
  DG_CHECK(g.num_nodes() == inner_.num_nodes());
  return g;
}

}  // namespace dyngossip
