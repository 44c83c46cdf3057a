// Determinism and regression tests: every run is a pure function of its
// configuration.  Reproducibility is a hard requirement for the benchmark
// harness (EXPERIMENTS.md quotes exact numbers).
#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/lb_adversary.hpp"
#include "adversary/patterns.hpp"
#include "algo/registry.hpp"
#include "core/random_flooding.hpp"
#include "engine/broadcast_engine.hpp"
#include "sim/simulator.hpp"

namespace dyngossip {
namespace {

bool same_metrics(const RunMetrics& a, const RunMetrics& b) {
  return a.unicast.token == b.unicast.token &&
         a.unicast.completeness == b.unicast.completeness &&
         a.unicast.request == b.unicast.request &&
         a.unicast.control == b.unicast.control && a.broadcasts == b.broadcasts &&
         a.tc == b.tc && a.deletions == b.deletions && a.learnings == b.learnings &&
         a.rounds == b.rounds && a.completed == b.completed;
}

TEST(Determinism, SingleSourceRunsAreReproducible) {
  auto run = [] {
    ChurnConfig cc;
    cc.n = 20;
    cc.target_edges = 50;
    cc.churn_per_round = 4;
    cc.seed = 7;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = 20;
    ctx.k = 15;
    ctx.cap = 100'000;
    return run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_TRUE(same_metrics(a.metrics, b.metrics));
}

TEST(Determinism, DifferentAdversarySeedsDiffer) {
  auto run = [](std::uint64_t seed) {
    ChurnConfig cc;
    cc.n = 20;
    cc.target_edges = 50;
    cc.churn_per_round = 4;
    cc.seed = seed;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = 20;
    ctx.k = 15;
    ctx.cap = 100'000;
    return run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  };
  const RunResult a = run(1);
  const RunResult b = run(2);
  EXPECT_FALSE(same_metrics(a.metrics, b.metrics));
}

TEST(Determinism, ObliviousTwoPhaseReproducible) {
  auto run = [] {
    std::vector<TokenSpace::SourceSpec> specs;
    for (NodeId v = 0; v < 24; ++v) specs.push_back({v, 1});
    const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
    ChurnConfig cc;
    cc.n = 24;
    cc.target_edges = 96;
    cc.churn_per_round = 3;
    cc.sigma = 3;
    cc.seed = 11;
    ChurnAdversary adversary(cc);
    ObliviousMsOptions opts;
    opts.seed = 13;
    opts.force_phase1 = true;
    opts.f_override = 4;
    return run_oblivious_multi_source(24, space, adversary, opts);
  };
  const ObliviousMsResult a = run();
  const ObliviousMsResult b = run();
  EXPECT_TRUE(same_metrics(a.total, b.total));
  EXPECT_EQ(a.num_centers, b.num_centers);
  EXPECT_EQ(a.phase1_rounds, b.phase1_rounds);
  EXPECT_EQ(a.walk_real_steps, b.walk_real_steps);
}

TEST(Determinism, RandomizedFloodingReproducibleUnderSeed) {
  auto run = [](std::uint64_t alg_seed) {
    RotatingStarAdversary adversary(16, 5);
    std::vector<KnowledgeSet> init(16, KnowledgeSet(8));
    for (std::size_t t = 0; t < 8; ++t) init[t].set(t);
    BroadcastEngine engine(RandomFloodingNode::make_all(16, 8, init, alg_seed),
                           adversary, init, 8);
    return to_run_result(engine.run(100'000));
  };
  EXPECT_TRUE(same_metrics(run(9).metrics, run(9).metrics));
  EXPECT_FALSE(same_metrics(run(9).metrics, run(10).metrics));
}

// Pinned-value regression: a fixed configuration must keep producing these
// exact numbers.  If an intentional algorithm/adversary change shifts them,
// update the constants alongside the explanation in the commit.
TEST(Regression, PinnedSingleSourceTrace) {
  ChurnConfig cc;
  cc.n = 16;
  cc.target_edges = 40;
  cc.churn_per_round = 2;
  cc.sigma = 3;
  cc.seed = 12345;
  ChurnAdversary adversary(cc);
  AlgoBuildContext ctx;
  ctx.n = 16;
  ctx.k = 8;
  ctx.cap = 100'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.metrics.unicast.token, 120u);  // (n-1)*k exactly
  EXPECT_EQ(r.metrics.learnings, 120u);
  EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
  // The full deterministic trace must be stable across repeated runs.
  ChurnAdversary adversary2(cc);
  const RunResult again = run_algo(AlgoSpec::parse("single_source"), ctx, adversary2);
  EXPECT_TRUE(same_metrics(r.metrics, again.metrics));
}

TEST(Determinism, LbAdversaryKPrimeFixedBySeed) {
  std::vector<KnowledgeSet> init(16, KnowledgeSet(8));
  for (std::size_t t = 0; t < 8; ++t) init[t].set(t);
  LbAdversaryConfig cfg;
  cfg.n = 16;
  cfg.k = 8;
  cfg.seed = 77;
  LowerBoundAdversary a(cfg, init), b(cfg, init);
  EXPECT_EQ(a.initial_potential(), b.initial_potential());
  for (std::size_t v = 0; v < 16; ++v) {
    EXPECT_TRUE(a.kprime()[v] == b.kprime()[v]);
  }
}

}  // namespace
}  // namespace dyngossip
