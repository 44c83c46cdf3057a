// AsyncEngine: completion on static and dynamic schedules, bit-identical
// payloads at 1/2/8 threads, the status ladder (round cap, timeout,
// all-down, stalled), fault-plane integration, and probe reconciliation.
#include "async/async_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/result_cache.hpp"
#include "fault/fault_plan.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

std::unique_ptr<Adversary> make_static(std::size_t n, std::uint64_t seed = 5) {
  return build_adversary(AdversarySpec{"static", {}}, n, seed);
}

/// Single source: node 0 holds all k tokens.
std::vector<KnowledgeSet> single_source_knowledge(std::size_t n,
                                                  std::size_t k) {
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  knowledge[0].set_all();
  return knowledge;
}

TEST(AsyncEngine, CompletesOnAStaticSchedule) {
  const std::size_t n = 16;
  const std::size_t k = 4;
  std::unique_ptr<Adversary> adversary = make_static(n);
  AsyncEngineOptions opts;
  opts.seed = 7;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(100'000);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kCompleted);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
  EXPECT_GT(m.virtual_steps, 0u);
  EXPECT_GT(m.rounds, 0u);
  EXPECT_GT(m.unicast.token, 0u);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    EXPECT_TRUE(engine.knowledge_of(v).all()) << v;
  }
}

TEST(AsyncEngine, PushPullCompletesFasterThanPushOnTheSameClock) {
  const std::size_t n = 24;
  const std::size_t k = 6;
  RunMetrics push;
  RunMetrics push_pull;
  for (const bool pp : {false, true}) {
    std::unique_ptr<Adversary> adversary = make_static(n);
    AsyncEngineOptions opts;
    opts.seed = 11;
    opts.push_pull = pp;
    AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
    (pp ? push_pull : push) = engine.run(1'000'000);
  }
  ASSERT_TRUE(push.completed);
  ASSERT_TRUE(push_pull.completed);
  // Identical clocks (same seed), so push-pull — two token legs per
  // contact — needs no more activations than push-only.
  EXPECT_LE(push_pull.virtual_steps, push.virtual_steps);
}

TEST(AsyncEngine, EventOrderIsBitIdenticalAtOneTwoAndEightThreads) {
  // The determinism contract of the async plane: the engine is serial by
  // design and every decision is position-keyed, so the pool handed to the
  // algorithm context must not change one bit of the payload.  Dispatch
  // through run_algo — the same path scenarios and the CLI use.
  const std::size_t n = 24;
  const std::uint32_t k = 6;
  std::uint64_t checksum1 = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    AdversarySpec adv{"churn", {}};
    adv.set("edges", static_cast<std::uint64_t>(3 * n))
        .set("churn", std::uint64_t{3});
    std::unique_ptr<Adversary> adversary = build_adversary(adv, n, 21);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.sources = 1;
    ctx.seed = 21;
    ctx.pool = &pool;
    const RunResult r =
        run_algo(AlgoSpec::parse("async_push_pull"), ctx, *adversary);
    const std::uint64_t checksum =
        make_cached_result(n, ctx.k_realized, r).checksum;
    if (threads == 1) {
      checksum1 = checksum;
      EXPECT_TRUE(r.completed);
    } else {
      EXPECT_EQ(checksum, checksum1) << "threads=" << threads;
    }
  }
}

TEST(AsyncEngine, HorizonCapReportsRoundCap) {
  // One σ-window at rate 1 holds ~n activations — nowhere near enough to
  // spread k tokens — so a 1-round horizon must cap, not complete.
  const std::size_t n = 16;
  const std::size_t k = 8;
  std::unique_ptr<Adversary> adversary = make_static(n);
  AsyncEngineOptions opts;
  opts.seed = 3;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(1);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kRoundCap);
  EXPECT_LE(m.rounds, 1u);
  EXPECT_LT(m.coverage, 1.0);
}

TEST(AsyncEngine, WallClockWatchdogReportsTimeout) {
  // An impossibly small budget trips the per-64-events watchdog long
  // before this run (n·k is far beyond 64 deliveries) can complete.
  const std::size_t n = 32;
  const std::size_t k = 16;
  std::unique_ptr<Adversary> adversary = make_static(n);
  AsyncEngineOptions opts;
  opts.seed = 9;
  opts.timeout_seconds = 1e-9;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(1'000'000);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kTimeout);
}

TEST(AsyncEngine, AllCrashedWithoutRecoveryReportsAllDown) {
  const std::size_t n = 8;
  const std::size_t k = 2;
  std::unique_ptr<Adversary> adversary = make_static(n);
  FaultPlan plan(FaultSpec::parse("fault:crash=1"), n, /*trial_seed=*/4);
  AsyncEngineOptions opts;
  opts.seed = 4;
  opts.faults = &plan;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(10'000);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kAllDown);
}

TEST(AsyncEngine, FullLossStalls) {
  const std::size_t n = 8;
  const std::size_t k = 2;
  std::unique_ptr<Adversary> adversary = make_static(n);
  FaultPlan plan(FaultSpec::parse("fault:drop=1"), n, /*trial_seed=*/6);
  AsyncEngineOptions opts;
  opts.seed = 6;
  opts.faults = &plan;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(10'000'000);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kStalled);
  // Senders still paid for every transmitted token (Definition 1.1).
  EXPECT_GT(m.unicast.token, 0u);
  EXPECT_EQ(m.learnings, 0u);
}

TEST(AsyncEngine, ProbeSeriesReconcilesWithRunTotals) {
  const std::size_t n = 16;
  const std::size_t k = 4;
  std::unique_ptr<Adversary> adversary = make_static(n);
  RoundProbe probe(/*every=*/3);  // stride > 1 exercises delta accumulation
  AsyncEngineOptions opts;
  opts.seed = 13;
  opts.telemetry.probe = &probe;
  AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
  const RunMetrics m = engine.run(100'000);
  ASSERT_TRUE(m.completed);
  ASSERT_FALSE(probe.samples().empty());
  std::uint64_t learned = 0;
  std::uint64_t sent = 0;
  for (const RoundProbeSample& s : probe.samples()) {
    learned += s.learned;
    sent += s.sent;
  }
  EXPECT_EQ(learned, m.learnings);
  EXPECT_EQ(sent, m.total_messages());
  EXPECT_DOUBLE_EQ(probe.samples().back().coverage, 1.0);
}

TEST(AsyncEngine, ProbeOnAndOffRunsDeliverIdenticalResults) {
  // The observer axis must never perturb the run.
  const std::size_t n = 16;
  const std::size_t k = 4;
  RunMetrics plain;
  RunMetrics probed;
  for (const bool with_probe : {false, true}) {
    std::unique_ptr<Adversary> adversary = make_static(n);
    RoundProbe probe;
    AsyncEngineOptions opts;
    opts.seed = 17;
    if (with_probe) opts.telemetry.probe = &probe;
    AsyncEngine engine(*adversary, single_source_knowledge(n, k), k, opts);
    (with_probe ? probed : plain) = engine.run(100'000);
  }
  EXPECT_EQ(plain.unicast.token, probed.unicast.token);
  EXPECT_EQ(plain.learnings, probed.learnings);
  EXPECT_EQ(plain.rounds, probed.rounds);
  EXPECT_EQ(plain.virtual_steps, probed.virtual_steps);
  EXPECT_EQ(plain.status, probed.status);
}

TEST(AsyncEngine, InitiallyCompleteKnowledgeFinishesWithoutEvents) {
  const std::size_t n = 8;
  const std::size_t k = 3;
  std::unique_ptr<Adversary> adversary = make_static(n);
  std::vector<KnowledgeSet> knowledge(n, KnowledgeSet(k));
  for (KnowledgeSet& kn : knowledge) kn.set_all();
  AsyncEngine engine(*adversary, std::move(knowledge), k, {});
  const RunMetrics m = engine.run(1'000);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.status, RunStatus::kCompleted);
  EXPECT_EQ(m.virtual_steps, 0u);
  EXPECT_EQ(m.rounds, 0u);
}

}  // namespace
}  // namespace dyngossip
