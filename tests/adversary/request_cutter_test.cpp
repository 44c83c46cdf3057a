// Tests for the adaptive request-cutting adversary.
#include "adversary/request_cutter.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.hpp"
#include "graph/connectivity.hpp"
#include "sim/bounds.hpp"

namespace dyngossip {
namespace {

TEST(RequestCutter, AlwaysConnectedUnderFullCutting) {
  RequestCutterConfig cfg;
  cfg.n = 16;
  cfg.target_edges = 40;
  cfg.cut_probability = 1.0;
  cfg.seed = 5;
  RequestCutterAdversary adversary(cfg);

  // Feed synthetic request traffic referencing live edges.
  UnicastRoundView view;
  std::vector<SentRecord> traffic;
  for (Round r = 1; r <= 100; ++r) {
    view.round = r;
    view.prev_messages = &traffic;
    const Graph g = adversary.unicast_round(view);
    EXPECT_TRUE(is_connected(g)) << "round " << r;
    traffic.clear();
    for (const EdgeKey key : g.sorted_edges()) {
      const auto [u, v] = edge_endpoints(key);
      traffic.push_back({u, v, Message::request(0)});
      if (traffic.size() >= 10) break;
    }
  }
  EXPECT_GT(adversary.cuts(), 500u);  // it really cuts
}

TEST(RequestCutter, FullCuttingStallsSingleSourceForever) {
  constexpr std::size_t n = 12;
  constexpr std::uint32_t k = 8;
  RequestCutterConfig cfg;
  cfg.n = n;
  cfg.target_edges = 30;
  cfg.cut_probability = 1.0;
  cfg.seed = 7;
  RequestCutterAdversary adversary(cfg);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 600;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  // Every response edge is cut before delivery: no node ever completes...
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.metrics.learnings, 0u);
  // ...yet the competitive accounting stays within the Theorem 3.1 budget:
  // messages - TC <= c (n^2 + nk).
  EXPECT_LE(r.metrics.competitive_residual(1.0),
            4.0 * bounds::single_source_messages(n, k));
  EXPECT_GT(r.metrics.tc, 500u);  // the adversary pays for its sabotage
}

TEST(RequestCutter, PartialCuttingEventuallyCompletes) {
  constexpr std::size_t n = 12;
  constexpr std::uint32_t k = 8;
  RequestCutterConfig cfg;
  cfg.n = n;
  cfg.target_edges = 30;
  cfg.cut_probability = 0.5;
  cfg.seed = 8;
  RequestCutterAdversary adversary(cfg);
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = 20'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.metrics.learnings, static_cast<std::uint64_t>(n - 1) * k);
  EXPECT_LE(r.metrics.competitive_residual(1.0),
            4.0 * bounds::single_source_messages(n, k));
}

TEST(RequestCutter, ZeroProbabilityIsBenignChurn) {
  RequestCutterConfig cfg;
  cfg.n = 10;
  cfg.target_edges = 20;
  cfg.cut_probability = 0.0;
  cfg.seed = 9;
  RequestCutterAdversary adversary(cfg);
  AlgoBuildContext ctx;
  ctx.n = 10;
  ctx.k = 4;
  ctx.cap = 2'000;
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(adversary.cuts(), 0u);
}

// Rounds 1..200 of a sparse cutter (1.5n target edges) fed a request on
// every live edge, so most rounds cut deep and need the reconnect repair.
// Each round must be connected, and the FNV-1a digest over (round, sorted
// edge keys) is pinned to literals: the repair's draws and edges may not
// move.
struct CutterDigest {
  std::uint64_t digest = 14695981039346656037ull;
  int repaired_rounds = 0;  ///< rounds the repair pushed past the target
};

CutterDigest cutter_digest(double cut_probability) {
  RequestCutterConfig cfg;
  cfg.n = 24;
  cfg.target_edges = 36;
  cfg.cut_probability = cut_probability;
  cfg.seed = 11;
  RequestCutterAdversary adversary(cfg);
  CutterDigest out;
  const auto fold = [&out](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      out.digest ^= (word >> (8 * byte)) & 0xffu;
      out.digest *= 1099511628211ull;
    }
  };
  UnicastRoundView view;
  std::vector<SentRecord> traffic;
  for (Round r = 1; r <= 200; ++r) {
    view.round = r;
    view.prev_messages = &traffic;
    const Graph& g = adversary.unicast_round(view);
    EXPECT_TRUE(is_connected(g)) << "round " << r;
    if (g.num_edges() > cfg.target_edges) ++out.repaired_rounds;
    fold(r);
    traffic.clear();
    for (const EdgeKey key : g.sorted_edges()) {
      fold(key);
      const auto [u, v] = edge_endpoints(key);
      traffic.push_back({u, v, Message::request(0)});
    }
  }
  return out;
}

TEST(RequestCutter, RepairedRoundsMatchPinnedDigest) {
  const CutterDigest partial = cutter_digest(0.7);
  EXPECT_GT(partial.repaired_rounds, 20);
  EXPECT_EQ(partial.digest, 0xe2a9c27eae463fd5ull);
  const CutterDigest full = cutter_digest(1.0);
  EXPECT_GT(full.repaired_rounds, 20);
  EXPECT_EQ(full.digest, 0xfa7162a344e2b02full);
}

}  // namespace
}  // namespace dyngossip
