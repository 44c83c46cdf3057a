// Cross-cutting property sweeps (TEST_P): the paper's structural invariants
// must hold for every algorithm × adversary × size × seed combination.
#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/request_cutter.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/registry.hpp"
#include "core/multi_source.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"
#include "sim/bounds.hpp"
#include "sim/simulator.hpp"

namespace dyngossip {
namespace {

struct PropertyCase {
  std::size_t n;
  std::uint32_t k;
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
  return os << "n" << c.n << "_k" << c.k << "_s" << c.seed;
}

class SingleSourceProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SingleSourceProperties, InvariantsUnderChurn) {
  const auto [n, k, seed] = GetParam();
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 3 * n;
  cc.churn_per_round = std::max<std::size_t>(1, n / 8);
  cc.sigma = 1;
  cc.seed = seed;
  ChurnAdversary adversary(cc);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 500'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);

  ASSERT_TRUE(r.completed);
  // Definition 1.4's conservation: exactly k(n-1) learnings.
  EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
  // Exactly-once delivery (Theorem 3.1 type 1).
  EXPECT_EQ(r.metrics.unicast.token, static_cast<std::uint64_t>(n - 1) * k);
  EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
  // Announcements once per ordered pair (type 2).
  EXPECT_LE(r.metrics.unicast.completeness, static_cast<std::uint64_t>(n) * (n - 1));
  // Requests bounded by nk + deletions (type 3).
  EXPECT_LE(r.metrics.unicast.request,
            static_cast<std::uint64_t>(n) * k + r.metrics.deletions);
  // Deletions never exceed insertions (E_0 = ∅).
  EXPECT_LE(r.metrics.deletions, r.metrics.tc);
  // Definition 1.3: 1-competitive residual within a constant of n² + nk.
  EXPECT_LE(r.metrics.competitive_residual(1.0),
            4.0 * bounds::single_source_messages(n, k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingleSourceProperties,
    ::testing::Values(PropertyCase{4, 2, 1}, PropertyCase{4, 16, 2},
                      PropertyCase{8, 8, 3}, PropertyCase{16, 4, 4},
                      PropertyCase{16, 32, 5}, PropertyCase{24, 24, 6},
                      PropertyCase{32, 8, 7}, PropertyCase{32, 64, 8},
                      PropertyCase{48, 16, 9}));

class MultiSourceProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MultiSourceProperties, InvariantsUnderChurn) {
  const auto [n, k_total, seed] = GetParam();
  // Spread k_total tokens over ~sqrt(n) sources.
  const std::size_t s = std::max<std::size_t>(2, n / 4);
  std::vector<TokenSpace::SourceSpec> specs;
  const auto per = std::max<std::uint32_t>(1, k_total / static_cast<std::uint32_t>(s));
  for (std::size_t i = 0; i < s; ++i) {
    specs.push_back({static_cast<NodeId>(i * n / s), per});
  }
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
  const std::uint64_t k = space->total_tokens();

  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 3 * n;
  cc.churn_per_round = std::max<std::size_t>(1, n / 8);
  cc.sigma = 1;
  cc.seed = seed * 101;
  ChurnAdversary adversary(cc);
  UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                       space->initial_knowledge(n), space->total_tokens());
  const RunMetrics r = engine.run(500'000);

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.learnings, (n - 1) * k);
  EXPECT_EQ(r.unicast.token, (n - 1) * k);
  EXPECT_EQ(r.duplicate_token_deliveries, 0u);
  // Type 2: once per (node, source, neighbor) triple.
  EXPECT_LE(r.unicast.completeness,
            static_cast<std::uint64_t>(n) * (n - 1) * s);
  EXPECT_LE(r.unicast.request,
            static_cast<std::uint64_t>(n) * k + r.deletions);
  EXPECT_LE(r.competitive_residual(1.0),
            4.0 * bounds::multi_source_messages(n, k, s));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiSourceProperties,
    ::testing::Values(PropertyCase{8, 8, 1}, PropertyCase{12, 24, 2},
                      PropertyCase{16, 16, 3}, PropertyCase{24, 48, 4},
                      PropertyCase{32, 32, 5}));

class ObliviousProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ObliviousProperties, TwoPhaseInvariants) {
  const auto [n, k_ignored, seed] = GetParam();
  (void)k_ignored;
  // n-gossip: one token per node, the regime Algorithm 2 targets.
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t v = 0; v < n; ++v) specs.push_back({static_cast<NodeId>(v), 1});
  const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));

  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = std::max<std::size_t>(1, n / 8);
  cc.sigma = 3;
  cc.seed = seed * 31;
  ChurnAdversary adversary(cc);
  ObliviousMsOptions opts;
  opts.seed = seed;
  opts.force_phase1 = true;
  opts.f_override = std::max<std::size_t>(2, n / 8);
  const ObliviousMsResult r = run_oblivious_multi_source(n, space, adversary, opts);

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.total.learnings, (n - 1) * space->total_tokens());
  // Phase metrics merge exactly.
  EXPECT_EQ(r.total.unicast.total(),
            r.phase1.unicast.total() + r.phase2.unicast.total());
  EXPECT_EQ(r.total.tc, r.phase1.tc + r.phase2.tc);
  // Phase-1 token traffic is exactly the real walk steps.
  EXPECT_EQ(r.phase1.unicast.token, r.walk_real_steps);
  // Phase 2 delivers exactly-once (walk revisits may duplicate in phase 1).
  EXPECT_EQ(r.phase2.duplicate_token_deliveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObliviousProperties,
    ::testing::Values(PropertyCase{16, 0, 1}, PropertyCase{24, 0, 2},
                      PropertyCase{32, 0, 3}, PropertyCase{48, 0, 4}));

class AdversaryGauntlet : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversaryGauntlet, SingleSourceSurvivesEveryAdversary) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t n = 16;
  constexpr std::uint32_t k = 12;
  const std::uint64_t exact_learnings = static_cast<std::uint64_t>(n - 1) * k;

  {
    StaticAdversary adversary(path_graph(n));  // worst diameter
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.metrics.learnings, exact_learnings);
  }
  {
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 2 * n;
    cc.churn_per_round = n / 2;  // violent churn
    cc.seed = seed;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.metrics.learnings, exact_learnings);
  }
  {
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = 2 * n;
    cc.fresh_graph_each_round = true;  // maximum-TC regime
    cc.seed = seed + 1;
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.metrics.competitive_residual(1.0),
              4.0 * bounds::single_source_messages(n, k));
  }
  {
    RequestCutterConfig rc;
    rc.n = n;
    rc.target_edges = 2 * n;
    rc.cut_probability = 0.7;
    rc.seed = seed + 2;
    RequestCutterAdversary adversary(rc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = 500'000;
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.metrics.competitive_residual(1.0),
              4.0 * bounds::single_source_messages(n, k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversaryGauntlet, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace dyngossip
