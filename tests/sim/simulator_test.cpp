// End-to-end smoke tests: every algorithm runs to completion, through
// run_algo where a spec names the task and from its node factory where the
// test hand-makes the tokens, plus Algorithm 2's two-phase driver.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/registry.hpp"
#include "core/flooding.hpp"
#include "core/multi_source.hpp"
#include "core/random_flooding.hpp"
#include "core/spanning_tree.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

TEST(Simulator, SingleSourceSmoke) {
  ChurnConfig cc;
  cc.n = 10;
  cc.target_edges = 20;
  cc.churn_per_round = 2;
  cc.sigma = 3;
  cc.seed = 1;
  ChurnAdversary adversary(cc);
  AlgoBuildContext ctx;
  ctx.n = 10;
  ctx.k = 6;
  ctx.cap = 50'000;
  const RunResult r =
      run_algo(AlgoSpec::parse("single_source:source=3"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, r.metrics.rounds);
}

TEST(Simulator, MultiSourceSmoke) {
  const auto space = std::make_shared<TokenSpace>(
      TokenSpace::contiguous({{0, 3}, {5, 3}}));
  StaticAdversary adversary(cycle_graph(8));
  UnicastEngine engine(MultiSourceNode::make_all({8, space}), adversary,
                       space->initial_knowledge(8), space->total_tokens());
  const RunMetrics r = engine.run(50'000);
  EXPECT_TRUE(r.completed);
}

TEST(Simulator, SpanningTreeSmoke) {
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, 4));
  StaticAdversary adversary(complete_graph(6));
  UnicastEngine engine(SpanningTreeNode::make_all({6, space}), adversary,
                       space->initial_knowledge(6), space->total_tokens());
  const RunMetrics r = engine.run(10'000);
  EXPECT_TRUE(r.completed);
}

TEST(Simulator, FloodingSmoke) {
  StaticAdversary adversary(path_graph(6));
  std::vector<KnowledgeSet> init(6, KnowledgeSet(3));
  init[0].set(0);
  init[2].set(1);
  init[5].set(2);
  BroadcastEngine phase_engine(PhaseFloodingNode::make_all(6, 3, init), adversary,
                               init, 3);
  const RunMetrics phase = phase_engine.run(1'000);
  EXPECT_TRUE(phase.completed);
  BroadcastEngine rnd_engine(RandomFloodingNode::make_all(6, 3, init, /*seed=*/7),
                             adversary, init, 3);
  const RunMetrics rnd = rnd_engine.run(10'000);
  EXPECT_TRUE(rnd.completed);
}

TEST(Simulator, ObliviousSmoke) {
  std::vector<TokenSpace::SourceSpec> specs;
  for (NodeId v = 0; v < 16; ++v) specs.push_back({v, 1});
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
  ChurnConfig cc;
  cc.n = 16;
  cc.target_edges = 48;
  cc.churn_per_round = 2;
  cc.sigma = 3;
  cc.seed = 2;
  ChurnAdversary adversary(cc);
  ObliviousMsOptions opts;
  opts.seed = 3;
  opts.force_phase1 = true;
  opts.f_override = 3;
  const ObliviousMsResult r = run_oblivious_multi_source(16, space, adversary, opts);
  EXPECT_TRUE(r.completed);
}

TEST(Simulator, IncompleteRunReportsHonestly) {
  StaticAdversary adversary(path_graph(30));
  AlgoBuildContext ctx;
  ctx.n = 30;
  ctx.k = 50;
  ctx.cap = 5;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 5u);
}

}  // namespace
}  // namespace dyngossip
