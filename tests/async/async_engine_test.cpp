// AsyncEngine: completion on static and dynamic schedules, bit-identical
// payloads at 1/2/8 threads, the status ladder (round cap, timeout,
// all-down, stalled), fault-plane integration, probe reconciliation, and
// literal payload pins over the rate/sigma/n/fault grid.
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
#include "trace/run_payload.hpp"

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

/// One pinned async run: the inputs, then the literal RunMetrics fields
/// and payload checksum it must reproduce.  The values are independent of
/// the event queue's layout; any change to them moves payload bytes.
struct AsyncPin {
  const char* algo;
  const char* adversary;
  std::size_t n;
  std::uint32_t k;
  std::uint64_t seed;
  Round cap;    ///< 0: the registry default (200·n·k rounds)
  bool faults;  ///< run under kPinFaults
  std::uint64_t tokens;
  std::uint64_t tc;
  std::uint64_t deletions;
  std::uint64_t learnings;
  std::uint64_t duplicates;
  std::uint64_t activations;
  Round rounds;
  RunStatus status;
  double coverage;
  std::uint64_t checksum;
};

constexpr const char* kPinFaults = "fault:drop=0.1,crash=0.01,dup=0.05";

// rate ∈ {0.05, 1, 40} × σ ∈ {0.01, 1, 7} × n ∈ {2, 24, 300}, both
// families, with and without faults, two horizon-capped runs (cap 3 and
// cap 4000 at 0.15 activations per window).
const AsyncPin kAsyncPins[] = {
    {"async_push:rate=1,sigma=1", "churn", 24, 6, 21, 0, false,
     1257, 235, 163, 138, 1119, 1370, 57, RunStatus::kCompleted, 1,
     0x8083903d31b1b7f9ull},
    {"async_push_pull:rate=1,sigma=1", "churn", 24, 6, 21, 0, false,
     950, 140, 68, 138, 812, 559, 24, RunStatus::kCompleted, 1,
     0x88dbd7fec1db8547ull},
    {"async_push:rate=0.05,sigma=7", "churn", 24, 6, 22, 0, false,
     1221, 489, 417, 138, 1083, 1280, 141, RunStatus::kCompleted, 1,
     0x49a8171d659aef31ull},
    {"async_push_pull:rate=40,sigma=0.01", "churn", 24, 6, 23, 0, false,
     1277, 282, 210, 138, 1139, 653, 72, RunStatus::kCompleted, 1,
     0x0be0b5dc8f5d6199ull},
    {"async_push_pull:rate=0.05,sigma=0.01", "churn", 24, 4, 24, 0, false,
     313, 56847, 56775, 85, 228, 228, 19200, RunStatus::kRoundCap, 0.92708333333333337,
     0x56965574baf8373cull},
    {"async_push:rate=40,sigma=1", "churn", 300, 8, 25, 0, false,
     63504, 1085, 185, 2392, 61112, 66118, 6, RunStatus::kCompleted, 1,
     0x4cad1e3a2305cddaull},
    {"async_push_pull:rate=1,sigma=7", "churn", 300, 8, 26, 0, false,
     30958, 1159, 259, 2392, 28566, 16334, 8, RunStatus::kCompleted, 1,
     0x4c2ca0b3f41ebcb7ull},
    {"async_push:rate=1,sigma=1", "static", 2, 3, 27, 0, false,
     5, 1, 0, 3, 2, 5, 2, RunStatus::kCompleted, 1,
     0x3a130a468ce75d5cull},
    {"async_push_pull:rate=40,sigma=0.01", "static", 2, 3, 28, 0, false,
     7, 1, 0, 3, 4, 4, 9, RunStatus::kCompleted, 1,
     0xbf4ab72de28f1c65ull},
    {"async_push:rate=0.05,sigma=1", "static", 2, 3, 29, 0, false,
     7, 1, 0, 3, 4, 7, 74, RunStatus::kCompleted, 1,
     0x9d3bc104aba0d37eull},
    {"async_push:rate=1,sigma=1", "churn", 24, 6, 31, 0, true,
     1752, 426, 354, 119, 999, 2891, 120, RunStatus::kCompleted, 0.86805555555555558,
     0x1f46210f1a7f2318ull},
    {"async_push_pull:rate=40,sigma=7", "churn", 300, 8, 32, 0, true,
     38062, 900, 0, 2344, 33261, 20916, 1, RunStatus::kCompleted, 0.97999999999999998,
     0xcb5abc3ae0ed2e8dull},
    {"async_push_pull:rate=0.05,sigma=0.01", "churn", 24, 4, 33, 0, true,
     0, 1343, 1271, 0, 0, 4, 431, RunStatus::kAllDown, 0.041666666666666664,
     0xba2d3c65787f7b32ull},
    {"async_push_pull:rate=1,sigma=1", "static", 2, 3, 34, 0, true,
     23, 1, 0, 3, 18, 12, 5, RunStatus::kCompleted, 1,
     0xd14384c42148f9beull},
    {"async_push:rate=1,sigma=1", "churn", 300, 8, 35, 3, false,
     22, 974, 74, 16, 6, 932, 3, RunStatus::kRoundCap, 0.01,
     0x7bc0a0336831a8c0ull},
    {"async_push_pull:rate=0.05,sigma=0.01", "churn", 300, 8, 36, 4000, false,
     31, 148568, 147668, 23, 8, 620, 3996, RunStatus::kRoundCap, 0.012916666666666667,
     0x9262c0f3ae3cab01ull},
    {"async_push:rate=1,sigma=1", "churn", 300, 8, 37, 0, true,
     27880, 12396, 11496, 1345, 11286, 93191, 312, RunStatus::kStalled, 0.56374999999999997,
     0x893422b5972b15c3ull},
    {"async_push_pull:rate=40,sigma=1", "churn", 24, 6, 38, 0, true,
     1369, 72, 0, 138, 1155, 732, 1, RunStatus::kCompleted, 1,
     0xa836cf027dc456c1ull},
};

TEST(AsyncEngine, PayloadPinsMatchLiteralValues) {
  for (const AsyncPin& pin : kAsyncPins) {
    SCOPED_TRACE(::testing::Message() << pin.algo << " " << pin.adversary
                                      << " n=" << pin.n << " seed=" << pin.seed
                                      << (pin.faults ? " faults" : ""));
    std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse(pin.adversary), pin.n, pin.seed);
    std::unique_ptr<FaultPlan> plan;
    AlgoBuildContext ctx;
    ctx.n = pin.n;
    ctx.k = pin.k;
    ctx.sources = 1;
    ctx.seed = pin.seed;
    ctx.cap = pin.cap;
    if (pin.faults) {
      plan = std::make_unique<FaultPlan>(FaultSpec::parse(kPinFaults), pin.n,
                                         pin.seed);
      ctx.faults = plan.get();
    }
    const RunResult r = run_algo(AlgoSpec::parse(pin.algo), ctx, *adversary);
    const RunMetrics& m = r.metrics;
    EXPECT_EQ(m.unicast.token, pin.tokens);
    EXPECT_EQ(m.tc, pin.tc);
    EXPECT_EQ(m.deletions, pin.deletions);
    EXPECT_EQ(m.learnings, pin.learnings);
    EXPECT_EQ(m.duplicate_token_deliveries, pin.duplicates);
    EXPECT_EQ(m.virtual_steps, pin.activations);
    EXPECT_EQ(m.rounds, pin.rounds);
    EXPECT_EQ(m.status, pin.status);
    EXPECT_DOUBLE_EQ(m.coverage, pin.coverage);
    EXPECT_EQ(run_payload_checksum(pin.n, ctx.k_realized, r), pin.checksum);
  }
}

}  // namespace
}  // namespace dyngossip
