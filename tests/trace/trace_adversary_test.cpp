// Tests for TraceRecorder / TraceAdversary: recording leaves a run
// untouched, and replaying reproduces it bit-for-bit.
#include "trace/trace_adversary.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adversary/churn.hpp"
#include "adversary/sigma_stable.hpp"
#include "algo/registry.hpp"
#include "core/tokens.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_gen.hpp"

namespace dyngossip {
namespace {

ChurnConfig churn_config(std::size_t n, std::uint64_t seed) {
  ChurnConfig cfg;
  cfg.n = n;
  cfg.target_edges = 3 * n;
  cfg.churn_per_round = n / 4;
  cfg.sigma = 2;
  cfg.seed = seed;
  return cfg;
}

void expect_metrics_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.unicast.token, b.metrics.unicast.token);
  EXPECT_EQ(a.metrics.unicast.completeness, b.metrics.unicast.completeness);
  EXPECT_EQ(a.metrics.unicast.request, b.metrics.unicast.request);
  EXPECT_EQ(a.metrics.unicast.control, b.metrics.unicast.control);
  EXPECT_EQ(a.metrics.broadcasts, b.metrics.broadcasts);
  EXPECT_EQ(a.metrics.tc, b.metrics.tc);
  EXPECT_EQ(a.metrics.deletions, b.metrics.deletions);
  EXPECT_EQ(a.metrics.learnings, b.metrics.learnings);
  EXPECT_EQ(a.metrics.duplicate_token_deliveries,
            b.metrics.duplicate_token_deliveries);
}

TEST(TraceAdversary, RecordingDoesNotPerturbTheRun) {
  const std::size_t n = 24;
  const std::uint32_t k = 48;
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = static_cast<Round>(100 * n * k);
  const AlgoSpec algo = AlgoSpec::parse("single_source");

  ChurnAdversary plain(churn_config(n, 5));
  const RunResult baseline = run_algo(algo, ctx, plain);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter writer(buf, n, 5, "");
  ChurnAdversary wrapped(churn_config(n, 5));
  TraceRecorder recorder(wrapped, writer);
  const RunResult recorded = run_algo(algo, ctx, recorder);
  writer.finish();

  expect_metrics_equal(baseline, recorded);
  EXPECT_EQ(writer.rounds(), recorded.rounds);
}

TEST(TraceAdversary, SingleSourceRecordThenReplayIsBitIdentical) {
  const std::size_t n = 24;
  const std::uint32_t k = 48;
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = static_cast<Round>(100 * n * k);
  const AlgoSpec algo = AlgoSpec::parse("single_source");

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  RunResult recorded = [&] {
    BinaryTraceWriter writer(buf, n, 5, "");
    ChurnAdversary inner(churn_config(n, 5));
    TraceRecorder recorder(inner, writer);
    RunResult r = run_algo(algo, ctx, recorder);
    writer.finish();
    return r;
  }();

  TraceAdversary replay(std::make_unique<BinaryTraceReader>(buf));
  const RunResult replayed = run_algo(algo, ctx, replay);
  expect_metrics_equal(recorded, replayed);
  EXPECT_EQ(run_payload_checksum(n, k, recorded),
            run_payload_checksum(n, k, replayed));
  EXPECT_FALSE(replay.exhausted());  // same dynamics, same length
}

TEST(TraceAdversary, MultiSourceRecordThenReplayIsBitIdentical) {
  const std::size_t n = 24;
  const std::uint32_t k = 48;
  // Four sources at i·(n/4), k/4 tokens each.
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.sources = 4;
  ctx.cap = static_cast<Round>(100 * n * k);
  const AlgoSpec algo = AlgoSpec::parse("multi_source");

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  RunResult recorded = [&] {
    BinaryTraceWriter writer(buf, n, 9, "");
    SigmaStableChurnConfig sc;
    sc.n = n;
    sc.target_edges = 3 * n;
    sc.churn_per_interval = 3 * n;
    sc.sigma = 4;
    sc.seed = 9;
    SigmaStableChurnAdversary inner(sc);
    TraceRecorder recorder(inner, writer);
    RunResult r = run_algo(algo, ctx, recorder);
    writer.finish();
    return r;
  }();

  TraceAdversary replay(std::make_unique<BinaryTraceReader>(buf));
  const RunResult replayed = run_algo(algo, ctx, replay);
  expect_metrics_equal(recorded, replayed);
  EXPECT_EQ(run_payload_checksum(n, k, recorded),
            run_payload_checksum(n, k, replayed));
}

TEST(TraceAdversary, ReplayedGraphsMatchTheGeneratorRoundByRound) {
  // The trace round graphs must be bit-identical (as edge sets) to what the
  // generator produced — replayed through the same CSR view the engines use.
  const std::size_t n = 20;
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter writer(buf, n, 3, "");
    ChurnAdversary gen(churn_config(n, 3));
    record_schedule(gen, 50, writer);
    writer.finish();
  }
  TraceAdversary replay(std::make_unique<BinaryTraceReader>(buf));
  ChurnAdversary reference(churn_config(n, 3));
  UnicastRoundView v;
  for (Round r = 1; r <= 50; ++r) {
    v.round = r;
    const Graph& a = replay.unicast_round(v);
    const Graph& b = reference.unicast_round(v);
    ASSERT_EQ(a.sorted_edges(), b.sorted_edges()) << "round " << r;
  }
  EXPECT_EQ(replay.rounds_replayed(), 50u);
}

TEST(TraceAdversary, HoldsLastGraphAfterExhaustion) {
  const std::size_t n = 12;
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter writer(buf, n, 3, "");
    ChurnAdversary gen(churn_config(n, 3));
    record_schedule(gen, 10, writer);
    writer.finish();
  }
  TraceAdversary replay(std::make_unique<BinaryTraceReader>(buf));
  UnicastRoundView v;
  std::vector<EdgeKey> last;
  for (Round r = 1; r <= 10; ++r) {
    v.round = r;
    last = replay.unicast_round(v).sorted_edges();
  }
  EXPECT_FALSE(replay.exhausted());
  for (Round r = 11; r <= 15; ++r) {
    v.round = r;
    EXPECT_EQ(replay.unicast_round(v).sorted_edges(), last) << "round " << r;
  }
  EXPECT_TRUE(replay.exhausted());
  EXPECT_EQ(replay.rounds_replayed(), 10u);
}

TEST(TraceAdversary, ServesBothEngineModels) {
  // One trace, replayed once through the broadcast view path and once
  // through the unicast view path: identical schedules.
  const std::size_t n = 16;
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  {
    BinaryTraceWriter writer(buf, n, 21, "");
    ChurnAdversary gen(churn_config(n, 21));
    record_schedule(gen, 20, writer);
    writer.finish();
  }
  const std::string bytes = buf.str();
  std::istringstream in_a(bytes);
  std::istringstream in_b(bytes);
  TraceAdversary broadcast_replay(std::make_unique<BinaryTraceReader>(in_a));
  TraceAdversary unicast_replay(std::make_unique<BinaryTraceReader>(in_b));
  for (Round r = 1; r <= 20; ++r) {
    BroadcastRoundView bv;
    bv.round = r;
    UnicastRoundView uv;
    uv.round = r;
    EXPECT_EQ(broadcast_replay.broadcast_round(bv).sorted_edges(),
              unicast_replay.unicast_round(uv).sorted_edges())
        << "round " << r;
  }
}

}  // namespace
}  // namespace dyngossip
