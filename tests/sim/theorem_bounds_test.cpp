// Theorem-shaped end-to-end checks: each of the paper's quantitative claims
// is exercised at test scale with explicit (generous) constants.
#include <algorithm>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/lb_adversary.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/registry.hpp"
#include "common/mathx.hpp"
#include "core/flooding.hpp"
#include "core/multi_source.hpp"
#include "core/random_flooding.hpp"
#include "core/spanning_tree.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"
#include "sim/bounds.hpp"
#include "sim/simulator.hpp"

namespace dyngossip {
namespace {

std::vector<KnowledgeSet> one_per_token(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  return init;
}

// --- Theorem 2.3: the LB adversary forces ω(n²/log²n) amortized broadcasts -

TEST(Theorem23, LbAdversaryForcesSuperLogSquaredCost) {
  constexpr std::size_t n = 48;
  constexpr std::size_t k = 24;
  const auto init = one_per_token(n, k, 5);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 6;
  LowerBoundAdversary adversary(cfg, init);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  const RunMetrics r = engine.run(100 * n * k);
  ASSERT_TRUE(r.completed);
  const double amortized = r.amortized(k);
  // At least the lower bound...
  EXPECT_GE(amortized, bounds::broadcast_lb_amortized(n));
  // ...and never above the naive O(n²) flooding ceiling.
  EXPECT_LE(amortized, 2.0 * bounds::broadcast_ub_amortized(n));
}

TEST(Theorem23, AlgorithmIndependenceOfTheThrottle) {
  // The Section-2 engine is algorithm-independent: it throttles *any*
  // token-forwarding algorithm to O(log n) learnings per round.  Random
  // flooding has no termination guarantee against a strongly adaptive
  // adversary (unlike phase flooding), so we run a fixed horizon and check
  // the throttle, not completion.
  constexpr std::size_t n = 32;
  constexpr std::size_t k = 16;
  const auto init = one_per_token(n, k, 7);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 8;
  LowerBoundAdversary adversary(cfg, init);
  const auto horizon = static_cast<Round>(4 * n * k);
  BroadcastEngine engine(RandomFloodingNode::make_all(n, k, init, 9), adversary, init, k);
  const RunMetrics r = engine.run(horizon);
  const double per_round =
      static_cast<double>(r.learnings) / static_cast<double>(r.rounds);
  EXPECT_LE(per_round, 4.0 * log2_clamped(static_cast<double>(n)));
  if (r.completed) {
    EXPECT_GE(r.amortized(k), bounds::broadcast_lb_amortized(n));
  }
}

TEST(Theorem23, LbThrottlesTheLearningRate) {
  // Benign topologies admit Θ(n) learnings in a single round (first round
  // of a phase on a complete graph); under the LB adversary the per-round
  // learning rate collapses to O(log n) on average.
  constexpr std::size_t n = 48;
  constexpr std::size_t k = 24;
  const auto init = one_per_token(n, k, 10);

  StaticAdversary benign(complete_graph(n));
  BroadcastEngineOptions beo;
  beo.record_learning_events = true;
  BroadcastEngine cheap_engine(PhaseFloodingNode::make_all(n, k, init), benign,
                               init, k, beo);
  cheap_engine.run(static_cast<Round>(100 * n * k));
  ASSERT_TRUE(cheap_engine.all_complete());
  const auto per_round = cheap_engine.learning_log().per_round(cheap_engine.round());
  const std::uint64_t burst =
      *std::max_element(per_round.begin(), per_round.end());
  EXPECT_GE(burst, static_cast<std::uint64_t>(n - 1));  // benign burst: Θ(n)

  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 11;
  LowerBoundAdversary nasty(cfg, init);
  BroadcastEngine costly_engine(PhaseFloodingNode::make_all(n, k, init), nasty, init, k);
  const RunMetrics costly = costly_engine.run(100 * n * k);
  ASSERT_TRUE(costly.completed);
  const double rate = static_cast<double>(costly.learnings) /
                      static_cast<double>(costly.rounds);
  EXPECT_LE(rate, 4.0 * log2_clamped(static_cast<double>(n)));
  // And the run is correspondingly long: at least nk / O(log n) rounds.
  EXPECT_GE(static_cast<double>(costly.rounds),
            static_cast<double>(n) * k /
                (8.0 * log2_clamped(static_cast<double>(n))));
}

// --- Theorem 3.1 / 3.4: single source -------------------------------------

TEST(Theorem31, ResidualScalesWithBoundAcrossSizes) {
  for (const std::size_t n : {12u, 24u, 48u}) {
    const auto k = static_cast<std::uint32_t>(2 * n);
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 3 * n;
    cc.churn_per_round = n / 6;
    cc.seed = 100 + n;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed) << n;
    EXPECT_LE(r.metrics.competitive_residual(1.0),
              4.0 * bounds::single_source_messages(n, k))
        << n;
  }
}

TEST(Theorem34, RoundsLinearInNkOnStableGraphs) {
  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto k = static_cast<std::uint32_t>(n);
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 2 * n;
    cc.churn_per_round = n / 4;
    cc.sigma = 3;
    cc.seed = 200 + n;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed) << n;
    EXPECT_LE(static_cast<double>(r.rounds), 2.0 * bounds::stable_round_bound(n, k))
        << n;
  }
}

// --- Theorem 3.5 / 3.6: multi source ---------------------------------------

TEST(Theorem35, ResidualWithinMultiSourceBound) {
  constexpr std::size_t n = 24;
  for (const std::size_t s : {2u, 4u, 8u}) {
    std::vector<TokenSpace::SourceSpec> specs;
    for (std::size_t i = 0; i < s; ++i) {
      specs.push_back({static_cast<NodeId>(i * n / s), 6});
    }
    const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 3 * n;
    cc.churn_per_round = 4;
    cc.seed = 300 + s;
    ChurnAdversary adversary(cc);
    UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                         space->initial_knowledge(n), space->total_tokens());
    const RunMetrics r = engine.run(500'000);
    ASSERT_TRUE(r.completed) << s;
    EXPECT_LE(r.competitive_residual(1.0),
              4.0 * bounds::multi_source_messages(n, space->total_tokens(), s))
        << s;
  }
}

TEST(Theorem36, MultiSourceRoundsLinearInNk) {
  constexpr std::size_t n = 16;
  std::vector<TokenSpace::SourceSpec> specs{{0, 8}, {5, 8}, {10, 8}};
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 2 * n;
  cc.churn_per_round = 3;
  cc.sigma = 3;
  cc.seed = 400;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(500'000);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(static_cast<double>(r.rounds),
            3.0 * bounds::stable_round_bound(n, space->total_tokens()));
}

// --- Theorem 3.8: the oblivious algorithm beats direct Multi-Source --------

TEST(Theorem38, CenterFunnelBeatsDirectMultiSourceOnNGossip) {
  // n-gossip with many sources: direct Multi-Source pays ~n²s announcements;
  // funnelling through a few centers collapses s and must win clearly.
  constexpr std::size_t n = 48;
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t v = 0; v < n; ++v) specs.push_back({static_cast<NodeId>(v), 1});
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));

  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = 4;
  cc.sigma = 3;
  cc.seed = 500;

  ChurnAdversary direct_adv(cc);
  UnicastEngine direct_engine(MultiSourceNode::make_all({n, space}), direct_adv,
                              space->initial_knowledge(n), space->total_tokens());
  const RunMetrics direct = direct_engine.run(1'000'000);
  ASSERT_TRUE(direct.completed);

  ChurnAdversary funnel_adv(cc);  // identical committed schedule
  ObliviousMsOptions opts;
  opts.seed = 501;
  opts.force_phase1 = true;
  opts.f_override = 6;
  const ObliviousMsResult funnel =
      run_oblivious_multi_source(n, space, funnel_adv, opts);
  ASSERT_TRUE(funnel.completed);

  EXPECT_LT(funnel.total.unicast.total(), direct.unicast.total());
}

// --- Section 1: the static baseline ---------------------------------------

TEST(StaticBaseline, AmortizedMatchesN2OverKPlusN) {
  constexpr std::size_t n = 16;
  for (const std::uint32_t k : {4u, 16u, 64u, 256u}) {
    const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, k));
    StaticAdversary adversary(complete_graph(n));
    UnicastEngine engine(SpanningTreeNode::make_all({n, space}), adversary,
                         space->initial_knowledge(n), space->total_tokens());
    const RunMetrics r = engine.run(1'000'000);
    ASSERT_TRUE(r.completed) << k;
    EXPECT_LE(r.amortized(k), 3.0 * bounds::static_amortized(n, k)) << k;
  }
}

}  // namespace
}  // namespace dyngossip
