#include "trace/trace_gen.hpp"

#include "common/check.hpp"

namespace dyngossip {

void record_schedule(ObliviousAdversary& adversary, Round rounds, TraceWriter& out) {
  DG_CHECK(adversary.num_nodes() == out.num_nodes());
  for (Round r = 1; r <= rounds; ++r) {
    BroadcastRoundView view;
    view.round = r;
    out.append_round(adversary.broadcast_round(view));
  }
}

void generate_sigma_churn_trace(const SigmaStableChurnConfig& cfg, Round rounds,
                                TraceWriter& out) {
  SigmaStableChurnAdversary adversary(cfg);
  record_schedule(adversary, rounds, out);
}

void smooth_round(Graph& g, std::size_t flips, Rng& rng,
                  ConnectivityChecker& connectivity) {
  const std::size_t n = g.num_nodes();
  if (n < 2) return;
  for (std::size_t i = 0; i < flips; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    auto v = static_cast<NodeId>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (!g.add_edge(u, v)) g.remove_edge(u, v);
  }
  connectivity.connect(g, rng);
}

void smooth_trace(TraceSource& base, const SmoothedTraceConfig& cfg,
                  TraceWriter& out) {
  const std::size_t n = base.header().n;
  DG_CHECK(n == out.num_nodes());
  Rng rng(cfg.seed);
  Graph base_graph(n);
  Graph perturbed(n);
  ConnectivityChecker connectivity;
  while (base.next_round(base_graph)) {
    perturbed = base_graph;
    smooth_round(perturbed, cfg.flips_per_round, rng, connectivity);
    out.append_round(perturbed);
  }
}

}  // namespace dyngossip
