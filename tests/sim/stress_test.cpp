// Randomized stress sweeps: many random configurations, one set of hard
// invariants.  These are the "failure injection" tier — adversary
// parameters are drawn adversarially wide (tiny graphs, violent churn,
// degenerate token counts) and every run must either complete with exact
// conservation laws or stop honestly at the cap.
#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/patterns.hpp"
#include "algo/registry.hpp"
#include "core/multi_source.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/stability.hpp"

namespace dyngossip {
namespace {

class RandomConfigStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfigStress, SingleSourceInvariantHolds) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 2 + rng.next_below(30);
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const auto source = static_cast<NodeId>(rng.next_below(n));
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = (n - 1) + rng.next_below(2 * n + 1);
    cc.churn_per_round = rng.next_below(n + 1);
    cc.sigma = static_cast<Round>(1 + rng.next_below(4));
    cc.seed = rng.next();
    ChurnAdversary adversary(cc);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = static_cast<Round>(500u * n * k);
    const AlgoSpec algo =
        AlgoSpec{"single_source", {}}.set("source", std::uint64_t{source});
    const RunResult r = run_algo(algo, ctx, adversary);
    ASSERT_TRUE(r.completed) << "n=" << n << " k=" << k;
    EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
    EXPECT_EQ(r.metrics.unicast.token, static_cast<std::uint64_t>(n - 1) * k);
    EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
    EXPECT_LE(r.metrics.unicast.completeness,
              static_cast<std::uint64_t>(n) * (n - 1));
    EXPECT_LE(r.metrics.unicast.request,
              static_cast<std::uint64_t>(n) * k + r.metrics.deletions);
    EXPECT_LE(r.metrics.deletions, r.metrics.tc);
  }
}

TEST_P(RandomConfigStress, MultiSourceInvariantHolds) {
  Rng rng(GetParam() ^ 0xabcdefull);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.next_below(24);
    const std::size_t s = 1 + rng.next_below(n / 2 + 1);
    std::vector<TokenSpace::SourceSpec> specs;
    const auto holders = rng.sample_without_replacement(n, s);
    for (const auto h : holders) {
      specs.push_back({static_cast<NodeId>(h),
                       static_cast<std::uint32_t>(1 + rng.next_below(6))});
    }
    const auto space = std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
    const std::uint64_t k = space->total_tokens();
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = (n - 1) + rng.next_below(2 * n + 1);
    cc.churn_per_round = rng.next_below(n / 2 + 1);
    cc.sigma = static_cast<Round>(1 + rng.next_below(4));
    cc.seed = rng.next();
    ChurnAdversary adversary(cc);
    UnicastEngine engine(MultiSourceNode::make_all({n, space}), adversary,
                         space->initial_knowledge(n), space->total_tokens());
    const RunMetrics r = engine.run(static_cast<Round>(1000u * n * k));
    ASSERT_TRUE(r.completed) << "n=" << n << " s=" << s << " k=" << k;
    EXPECT_EQ(r.learnings, (n - 1) * k);
    EXPECT_EQ(r.duplicate_token_deliveries, 0u);
    EXPECT_LE(r.unicast.completeness,
              static_cast<std::uint64_t>(n) * (n - 1) * s);
  }
}

TEST_P(RandomConfigStress, PatternAdversariesNeverBreakTheEngine) {
  Rng rng(GetParam() ^ 0x1234567ull);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 4 + rng.next_below(20);
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(12));
    {
      RotatingStarAdversary adversary(n, rng.next());
      AlgoBuildContext ctx;
      ctx.n = n;
      ctx.k = k;
      ctx.cap = static_cast<Round>(500u * n * k);
      const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
      ASSERT_TRUE(r.completed);
      EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
    }
    {
      PathShuffleAdversary adversary(n, rng.next());
      AlgoBuildContext ctx;
      ctx.n = n;
      ctx.k = k;
      ctx.cap = static_cast<Round>(2000u * n * k);
      const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
      ASSERT_TRUE(r.completed);
      EXPECT_EQ(r.metrics.duplicate_token_deliveries, 0u);
    }
  }
}

TEST_P(RandomConfigStress, ChurnStabilityContractUnderRandomParams) {
  Rng rng(GetParam() ^ 0xfeedull);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 3 + rng.next_below(20);
    ChurnConfig cc;
    cc.n = n;
    cc.target_edges = (n - 1) + rng.next_below(3 * n);
    cc.churn_per_round = rng.next_below(2 * n);
    cc.sigma = static_cast<Round>(1 + rng.next_below(5));
    cc.seed = rng.next();
    ChurnAdversary adversary(cc);
    StabilityValidator validator(cc.sigma);
    UnicastRoundView v;
    for (Round r = 1; r <= 120; ++r) {
      v.round = r;
      validator.observe(adversary.unicast_round(v), r);
    }
    EXPECT_EQ(validator.violations(), 0u)
        << "n=" << n << " sigma=" << cc.sigma << " churn=" << cc.churn_per_round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigStress,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace dyngossip
