// Bit-identity of probe series across thread counts: the per-round samples
// the broadcast engine (the only engine that shards its rounds) emits must
// be EXACTLY the same whether it runs serially or shards its rounds across
// a 2- or 8-worker pool — including the fault counters (dropped/duplicated),
// which are folded per shard in shard order.  The telemetry extension of
// tests/engine/sharded_identity_test.cpp.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "core/flooding.hpp"
#include "core/single_source.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

ChurnConfig churn_config(std::size_t n) {
  ChurnConfig cc;
  cc.n = n;
  cc.target_edges = 4 * n;
  cc.churn_per_round = n / 8;
  cc.sigma = 3;
  cc.seed = 42;
  return cc;
}

/// Exercises every fault path at once so the probe's dropped/duplicated/
/// crashed columns all carry nonzero, order-sensitive data.
FaultSpec identity_fault_spec() {
  FaultSpec spec;
  spec.drop = 0.1;
  spec.dup = 0.05;
  spec.crash = 0.01;
  spec.recover = 0.2;
  return spec;
}

std::vector<RoundProbeSample> probe_unicast(std::size_t n, std::uint32_t k) {
  ChurnAdversary adversary(churn_config(n));
  const FaultSpec fault = identity_fault_spec();
  FaultPlan plan(fault, n, 123);
  SingleSourceConfig cfg{n, k, 0};
  RoundProbe probe;
  UnicastEngineOptions opts;
  opts.faults = &plan;
  opts.telemetry.probe = &probe;
  UnicastEngine engine(SingleSourceNode::make_all(cfg), adversary,
                       SingleSourceNode::initial_knowledge(cfg), k, opts);
  (void)engine.run(static_cast<Round>(200 * n));
  return probe.samples();
}

std::vector<RoundProbeSample> probe_broadcast(std::size_t n, std::size_t k,
                                              ThreadPool* pool) {
  ChurnAdversary adversary(churn_config(n));
  const FaultSpec fault = identity_fault_spec();
  FaultPlan plan(fault, n, 123);
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[t % n].set(t);
  RoundProbe probe;
  BroadcastEngineOptions opts;
  opts.pool = pool;
  opts.min_parallel_nodes = 1;
  opts.faults = &plan;
  opts.telemetry.probe = &probe;
  BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), adversary,
                         init, k, opts);
  (void)engine.run(static_cast<Round>(200 * n));
  return probe.samples();
}

TEST(ProbeIdentity, BroadcastSeriesMatchesSerialAtEveryThreadCount) {
  const std::size_t n = 96;
  const std::size_t k = 64;
  const std::vector<RoundProbeSample> serial = probe_broadcast(n, k, nullptr);
  ASSERT_FALSE(serial.empty());

  ThreadPool pool2(2);
  EXPECT_EQ(serial, probe_broadcast(n, k, &pool2));
  ThreadPool pool8(8);
  EXPECT_EQ(serial, probe_broadcast(n, k, &pool8));
}

TEST(ProbeIdentity, FaultCountersActuallyFire) {
  // The identity above gates nothing if the fault columns stay zero; the
  // unicast engine fills the same columns.
  for (const std::vector<RoundProbeSample>& series :
       {probe_broadcast(96, 64, nullptr), probe_unicast(96, 64)}) {
    std::uint64_t dropped = 0, duplicated = 0, crashed = 0;
    for (const RoundProbeSample& s : series) {
      dropped += s.dropped;
      duplicated += s.duplicated;
      crashed += s.crashed;
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(duplicated, 0u);
    EXPECT_GT(crashed, 0u);
  }
}

}  // namespace
}  // namespace dyngossip
