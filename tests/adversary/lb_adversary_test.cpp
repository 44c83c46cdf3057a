// Tests for the Section-2 lower-bound adversary: free-edge analysis
// (Lemmas 2.1/2.2) and the potential-throttling behaviour (Theorem 2.3).
#include "adversary/lb_adversary.hpp"

#include <gtest/gtest.h>

#include "common/mathx.hpp"
#include "core/flooding.hpp"
#include "engine/broadcast_engine.hpp"
#include "graph/connectivity.hpp"
#include "metrics/potential.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

TEST(FreeGraph, AllSilentIsOneComponent) {
  constexpr std::size_t n = 8, k = 4;
  std::vector<TokenId> intents(n, kNoToken);
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  std::vector<KnowledgeSet> kprime(n, KnowledgeSet(k));
  const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime);
  EXPECT_EQ(a.components, 1u);
  EXPECT_EQ(a.broadcasters, 0u);
  EXPECT_EQ(a.forest.size(), n - 1);
}

TEST(FreeGraph, UsefulBroadcasterIsIsolated) {
  // Node 0 broadcasts token 0, which nobody knows and no K' contains:
  // every edge at node 0 is non-free; all other nodes form one free blob.
  constexpr std::size_t n = 6, k = 2;
  std::vector<TokenId> intents(n, kNoToken);
  intents[0] = 0;
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  knowledge[0].set(0);  // token forwarding: the broadcaster holds it
  std::vector<KnowledgeSet> kprime(n, KnowledgeSet(k));
  const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime);
  EXPECT_EQ(a.components, 2u);
  EXPECT_EQ(a.broadcasters, 1u);
}

TEST(FreeGraph, KPrimeAbsorbsBroadcast) {
  // Same as above but every node's K' contains token 0: the broadcast is
  // useless everywhere, so the free graph is connected.
  constexpr std::size_t n = 6, k = 2;
  std::vector<TokenId> intents(n, kNoToken);
  intents[0] = 0;
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  knowledge[0].set(0);
  std::vector<KnowledgeSet> kprime(n, KnowledgeSet(k));
  for (auto& kp : kprime) kp.set(0);
  const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime);
  EXPECT_EQ(a.components, 1u);
}

TEST(FreeGraph, KnownTokenIsUseless) {
  // Everyone already knows token 0: broadcasting it creates no non-free edge.
  constexpr std::size_t n = 5, k = 1;
  std::vector<TokenId> intents(n, 0);
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k, /*initially_set=*/true));
  std::vector<KnowledgeSet> kprime(n, KnowledgeSet(k));
  const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime);
  EXPECT_EQ(a.components, 1u);
  EXPECT_EQ(a.broadcasters, n);
}

TEST(FreeGraph, FullFreeEdgeListMatchesForestComponents) {
  Rng rng(7);
  constexpr std::size_t n = 24, k = 16;
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  std::vector<KnowledgeSet> kprime = sample_kprime(n, k, 0.25, rng);
  std::vector<TokenId> intents(n, kNoToken);
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.bernoulli(0.5)) {
      const auto t = static_cast<TokenId>(rng.next_below(k));
      knowledge[v].set(t);
      intents[v] = t;
    }
  }
  std::vector<EdgeKey> all_free;
  const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime, &all_free);
  // The full free graph must have the same component structure as the forest.
  const Graph forest_g(n, a.forest);
  const Graph full_g(n, all_free);
  EXPECT_EQ(connected_components(forest_g).count, a.components);
  EXPECT_EQ(connected_components(full_g).count, a.components);
  EXPECT_GE(all_free.size(), a.forest.size());
}

// --- Lemma 2.2: sparse token assignments leave the free graph connected ---

class SparseAssignmentTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseAssignmentTest, SparseBroadcastersSingleComponent) {
  Rng rng(GetParam());
  constexpr std::size_t n = 128, k = 64;
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  const std::vector<KnowledgeSet> kprime = sample_kprime(n, k, 0.25, rng);
  // Lemma 2.2 sparsity: β <= n / (c log n); c = 4 at n = 128 gives β <= 4.
  const auto beta = static_cast<std::size_t>(
      bounds::sparse_broadcaster_threshold(n, 4.0));
  ASSERT_GE(beta, 1u);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TokenId> intents(n, kNoToken);
    for (const auto v : rng.sample_without_replacement(n, beta)) {
      const auto t = static_cast<TokenId>(rng.next_below(k));
      knowledge[v].set(t);  // broadcaster must hold the token
      intents[v] = t;
    }
    const FreeGraphAnalysis a = analyze_free_graph(intents, knowledge, kprime);
    EXPECT_EQ(a.components, 1u) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseAssignmentTest,
                         ::testing::Values(11, 22, 33, 44));

// --- Lemma 2.1: components stay O(log n) for arbitrary assignments --------

TEST(FreeGraph, ComponentsLogarithmicUnderDenseBroadcast) {
  Rng rng(55);
  constexpr std::size_t n = 128, k = 128;
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  const std::vector<KnowledgeSet> kprime = sample_kprime(n, k, 0.25, rng);
  std::size_t worst = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TokenId> intents(n);
    for (std::size_t v = 0; v < n; ++v) {
      const auto t = static_cast<TokenId>(rng.next_below(k));
      knowledge[v].set(t);
      intents[v] = t;
    }
    worst = std::max(worst, analyze_free_graph(intents, knowledge, kprime).components);
  }
  // Lemma 2.1: O(log n) components; allow a generous constant.
  EXPECT_LE(worst, 6 * static_cast<std::size_t>(log2_clamped(n)));
}

// --- The adversary itself ---------------------------------------------------

std::vector<KnowledgeSet> one_per_token(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[rng.next_below(n)].set(t);
  return init;
}

TEST(LowerBoundAdversary, InitialPotentialWithinBudget) {
  constexpr std::size_t n = 64, k = 64;
  const auto init = one_per_token(n, k, 3);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 5;
  LowerBoundAdversary adversary(cfg, init);
  EXPECT_LE(adversary.initial_potential(),
            static_cast<std::uint64_t>(0.8 * n * k));
  EXPECT_EQ(adversary.kprime().size(), n);
}

TEST(LowerBoundAdversary, RoundGraphsAreConnected) {
  constexpr std::size_t n = 32, k = 16;
  const auto init = one_per_token(n, k, 4);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 6;
  LowerBoundAdversary adversary(cfg, init);
  // Drive the adversary with arbitrary token assignments.
  Rng rng(9);
  std::vector<KnowledgeSet> knowledge = init;
  for (Round r = 1; r <= 40; ++r) {
    std::vector<TokenId> intents(n, kNoToken);
    for (std::size_t v = 0; v < n; ++v) {
      const auto held = knowledge[v].set_positions();
      if (!held.empty() && rng.bernoulli(0.7)) {
        intents[v] = static_cast<TokenId>(held[rng.next_below(held.size())]);
      }
    }
    BroadcastRoundView view;
    view.round = r;
    view.intents = intents;
    view.knowledge = &knowledge;
    const Graph g = adversary.broadcast_round(view);
    EXPECT_TRUE(is_connected(g)) << "round " << r;
    // Simulate delivery so knowledge evolves.
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId u : g.neighbors(v)) {
        if (intents[u] != kNoToken) knowledge[v].set(intents[u]);
      }
    }
  }
}

TEST(LowerBoundAdversary, SparseRoundsMakeZeroPotentialProgress) {
  // The defining property (Lemma 2.2 applied): rounds with at most
  // n/(c log n) broadcasters must not increase Φ.  Run naive flooding and
  // check the recorded series.
  constexpr std::size_t n = 64, k = 16;
  const auto init = one_per_token(n, k, 12);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 13;
  cfg.record_series = true;
  LowerBoundAdversary adversary(cfg, init);
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  engine.run(static_cast<Round>(4 * n * k));
  ASSERT_TRUE(engine.all_complete());

  const auto& series = adversary.series();
  ASSERT_GT(series.size(), 2u);
  const auto sparse = static_cast<std::uint32_t>(
      bounds::sparse_broadcaster_threshold(n, 4.0));
  std::uint64_t final_phi = potential(
      std::vector<KnowledgeSet>(n, KnowledgeSet(k, true)), adversary.kprime());
  EXPECT_EQ(final_phi, static_cast<std::uint64_t>(n) * k);
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    const auto delta = static_cast<std::int64_t>(series[i + 1].phi_before) -
                       static_cast<std::int64_t>(series[i].phi_before);
    EXPECT_GE(delta, 0);  // Φ is monotone
    if (series[i].broadcasters <= sparse) {
      EXPECT_EQ(delta, 0) << "sparse round " << i << " made progress";
    }
    // Progress is bounded by 2(components - 1) (Section 2).
    EXPECT_LE(delta, 2 * (static_cast<std::int64_t>(series[i].components) - 1));
  }
}

TEST(LowerBoundAdversary, DenseInitialKnowledgeWithinTheoremPremise) {
  // Theorem 2.3 allows each token at an arbitrary node subset as long as
  // nodes know at most k/2 tokens on average.  Give every node a random
  // half-ish of the tokens: the Φ(0) <= 0.8nk resampling must still
  // succeed and the run must complete under throttle.
  constexpr std::size_t n = 32, k = 16;
  Rng rng(31);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < k; ++t) {
      if (rng.bernoulli(0.45)) init[v].set(t);
    }
  }
  // Every token must exist somewhere for dissemination to be solvable.
  for (std::size_t t = 0; t < k; ++t) init[t % n].set(t);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 32;
  LowerBoundAdversary adversary(cfg, init);
  EXPECT_LE(adversary.initial_potential(),
            static_cast<std::uint64_t>(0.8 * n * k));
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary, init, k);
  EXPECT_TRUE(engine.run(static_cast<Round>(10 * n * k)).completed);
}

TEST(LowerBoundAdversaryDeath, SaturatedInitialKnowledgeRejected) {
  // If everyone already knows everything, Φ(0) = nk > 0.8nk can never be
  // met: the constructor must refuse (the theorem premise is violated).
  constexpr std::size_t n = 8, k = 8;
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k, /*initially_set=*/true));
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 33;
  EXPECT_DEATH(LowerBoundAdversary(cfg, init), "DG_CHECK");
}

TEST(LowerBoundAdversary, FullFreeGraphModeAlsoConnected) {
  constexpr std::size_t n = 24, k = 8;
  const auto init = one_per_token(n, k, 21);
  LbAdversaryConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.seed = 22;
  cfg.full_free_graph = true;
  LowerBoundAdversary adversary(cfg, init);
  std::vector<KnowledgeSet> knowledge = init;
  std::vector<TokenId> intents(n, kNoToken);
  BroadcastRoundView view;
  view.round = 1;
  view.intents = intents;
  view.knowledge = &knowledge;
  const Graph g = adversary.broadcast_round(view);
  EXPECT_TRUE(is_connected(g));
  // All-silent: the full free graph is the complete graph.
  EXPECT_EQ(g.num_edges(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace dyngossip
