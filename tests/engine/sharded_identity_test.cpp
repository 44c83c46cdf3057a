// Bit-identity of the broadcast engine's sharded path (the only engine that
// shards its rounds): a run with intra-round sharding across an N-worker
// pool must reproduce the serial run exactly — same payload checksum, same
// per-node knowledge, same learning log — at every thread count.
// min_parallel_nodes is pinned to 1 so sharding engages even at test-sized
// n.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "core/flooding.hpp"
#include "engine/broadcast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/thread_pool.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

/// Everything a run can differ in: the payload checksum folds n, k,
/// completion, rounds, and every message counter; knowledge and the
/// learning log cover the engine state the checksum does not reach.
struct Snapshot {
  std::uint64_t checksum = 0;
  std::vector<std::vector<std::size_t>> knowledge;
  std::uint64_t learnings = 0;
  Round last_learning_round = 0;
};

void expect_identical(const Snapshot& serial, const Snapshot& sharded,
                      const char* what) {
  EXPECT_EQ(serial.checksum, sharded.checksum) << what;
  EXPECT_EQ(serial.knowledge, sharded.knowledge) << what;
  EXPECT_EQ(serial.learnings, sharded.learnings) << what;
  EXPECT_EQ(serial.last_learning_round, sharded.last_learning_round) << what;
}

ChurnConfig churn_config(std::size_t n) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 42;
  return cc;
}

/// A spec that exercises every fault path at once: loss, duplication, and
/// crash/recovery.  Decisions are position-keyed off the plan seed, so the
/// same spec + seed must behave identically at every thread count.
FaultSpec identity_fault_spec() {
  FaultSpec spec;
  spec.drop = 0.1;
  spec.dup = 0.05;
  spec.crash = 0.01;
  spec.recover = 0.2;
  return spec;
}

Snapshot run_broadcast(std::size_t n, std::size_t k, ThreadPool* pool,
                       const FaultSpec* fault = nullptr) {
  ChurnAdversary adversary(churn_config(n));
  FaultPlan plan(fault != nullptr ? *fault : FaultSpec{}, n, 123);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[t % n].set(t);
  BroadcastEngineOptions opts;
  opts.pool = pool;
  opts.min_parallel_nodes = 1;
  if (fault != nullptr) opts.faults = &plan;
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary,
                         init, k, opts);
  RunResult res;
  res.metrics = engine.run(static_cast<Round>(200 * n));
  res.rounds = res.metrics.rounds;
  res.completed = res.metrics.completed;

  Snapshot snap;
  snap.checksum = run_payload_checksum(n, k, res);
  for (NodeId v = 0; v < n; ++v) {
    snap.knowledge.push_back(engine.knowledge_of(v).set_positions());
  }
  snap.learnings = engine.learning_log().count();
  snap.last_learning_round = engine.learning_log().last_learning_round();
  return snap;
}

TEST(ShardedIdentity, BroadcastMatchesSerialAtEveryThreadCount) {
  const std::size_t n = 96;
  const std::size_t k = 64;
  const Snapshot serial = run_broadcast(n, k, nullptr);
  ASSERT_FALSE(serial.knowledge.empty());

  ThreadPool pool2(2);
  expect_identical(serial, run_broadcast(n, k, &pool2), "2 threads");
  ThreadPool pool8(8);
  expect_identical(serial, run_broadcast(n, k, &pool8), "8 threads");
}

TEST(ShardedIdentity, FaultedBroadcastMatchesSerialAtEveryThreadCount) {
  // Fault decisions are position-keyed hashes of (round, arc/node, seq),
  // never of evaluation order — so a faulted run must stay bit-identical
  // whichever shard (or thread count) evaluates each delivery.
  const std::size_t n = 96;
  const std::size_t k = 64;
  const FaultSpec fault = identity_fault_spec();
  const Snapshot serial = run_broadcast(n, k, nullptr, &fault);
  ASSERT_FALSE(serial.knowledge.empty());
  EXPECT_NE(serial.checksum, run_broadcast(n, k, nullptr).checksum);

  ThreadPool pool2(2);
  expect_identical(serial, run_broadcast(n, k, &pool2, &fault), "2 threads");
  ThreadPool pool8(8);
  expect_identical(serial, run_broadcast(n, k, &pool8, &fault), "8 threads");
}

TEST(ShardedIdentity, OneWorkerPoolStaysSerial) {
  // plan_shards must fall back to the serial path for a 1-worker pool (the
  // pool is a leaf executor and fork/join to one worker is pure overhead).
  const std::size_t n = 48;
  const std::size_t k = 32;
  ThreadPool pool1(1);
  expect_identical(run_broadcast(n, k, nullptr), run_broadcast(n, k, &pool1),
                   "1 thread");
}

}  // namespace
}  // namespace dyngossip
