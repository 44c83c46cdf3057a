// Tests for σ-edge-stability validation (Section 1.3).
#include "graph/stability.hpp"

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "graph/generators.hpp"

namespace dyngossip {
namespace {

TEST(Stability, EverySequenceIsOneStable) {
  Rng rng(1);
  StabilityValidator v(1);
  for (Round r = 1; r <= 30; ++r) {
    v.observe(connected_erdos_renyi(12, 0.2, rng), r);
  }
  EXPECT_EQ(v.violations(), 0u);
}

TEST(Stability, DetectsShortLivedEdge) {
  StabilityValidator v(3);
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  v.observe(a, 1);
  v.observe(b, 2);  // {0,1} lived exactly 1 round < 3
  EXPECT_EQ(v.violations(), 1u);
  EXPECT_EQ(v.min_lifetime(), 1u);
}

TEST(Stability, ExactlySigmaRoundsIsLegal) {
  Graph g3a(3), g3b(3);
  g3a.add_edge(0, 1);
  g3a.add_edge(1, 2);
  g3b.add_edge(1, 2);
  g3b.add_edge(0, 2);
  StabilityValidator v3(3);
  v3.observe(g3a, 1);
  v3.observe(g3a, 2);
  v3.observe(g3a, 3);
  v3.observe(g3b, 4);  // {0,1} lived rounds 1..3 = exactly 3
  EXPECT_EQ(v3.violations(), 0u);
  EXPECT_EQ(v3.min_lifetime(), 3u);
}

class ChurnStabilityTest : public ::testing::TestWithParam<Round> {};

TEST_P(ChurnStabilityTest, ChurnAdversaryHonorsSigma) {
  const Round sigma = GetParam();
  ChurnConfig cfg;
  cfg.n = 24;
  cfg.target_edges = 60;
  cfg.churn_per_round = 6;
  cfg.sigma = sigma;
  cfg.seed = 77 + sigma;
  ChurnAdversary adversary(cfg);
  StabilityValidator v(sigma);
  BroadcastRoundView dummy;  // oblivious: the view is ignored
  for (Round r = 1; r <= 200; ++r) {
    dummy.round = r;
    v.observe(adversary.broadcast_round(dummy), r);
  }
  EXPECT_EQ(v.violations(), 0u) << "sigma=" << sigma;
  if (sigma > 1) {
    EXPECT_GE(v.min_lifetime(), sigma);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, ChurnStabilityTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(StabilityDeath, RoundsMustBeConsecutive) {
  StabilityValidator v(2);
  v.observe(path_graph(3), 1);
  EXPECT_DEATH(v.observe(path_graph(3), 3), "DG_CHECK");
}

}  // namespace
}  // namespace dyngossip
