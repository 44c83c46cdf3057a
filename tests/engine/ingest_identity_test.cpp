// Engine-level identity of the two round-ingest paths.
//
// Every algorithm family runs through run_algo twice over the same
// schedule: once behind a decorator shaped like perfbench's timing
// decorator (it returns the inner adversary's graph, so its committed
// revision and net delta reach the engine and the ingest patches its
// snapshot), and once behind a decorator that rebuilds each round's graph
// edge by edge into a graph of its own (never committed, so every round
// takes the full rebuild + block-diff path).  The two runs must give identical
// RunMetrics and payload checksums, under no faults, amnesia,
// crash/recover and drop+dup, at 1 and 8 threads.  The process-wide delta
// round counter shows which path each run took.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "adversary/sigma_stable.hpp"
#include "algo/registry.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "graph/round_ingest.hpp"
#include "sim/runner/thread_pool.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// Forwards both round calls and returns the inner graph — the shape of
/// the benchmark's timing decorator, so the engine receives the delta.
class ForwardingAdversary final : public Adversary {
 public:
  explicit ForwardingAdversary(Adversary& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t num_nodes() const override { return inner_.num_nodes(); }
  [[nodiscard]] const Graph& broadcast_round(const BroadcastRoundView& view) override {
    return inner_.broadcast_round(view);
  }
  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override {
    return inner_.unicast_round(view);
  }

 private:
  Adversary& inner_;
};

/// Forwards, then returns the same edge set in an uncommitted graph of its
/// own, so every round rebuilds.
class UncommittedAdversary final : public Adversary {
 public:
  explicit UncommittedAdversary(Adversary& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t num_nodes() const override { return inner_.num_nodes(); }
  [[nodiscard]] const Graph& broadcast_round(const BroadcastRoundView& view) override {
    return own(inner_.broadcast_round(view));
  }
  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override {
    return own(inner_.unicast_round(view));
  }

 private:
  const Graph& own(const Graph& g) {
    own_ = Graph(g.num_nodes(), g.edges());
    return own_;
  }

  Adversary& inner_;
  Graph own_;
};

enum class Path { kDelta, kFull };

struct Outcome {
  RunMetrics metrics;
  std::uint64_t checksum = 0;
  std::uint64_t delta_rounds = 0;  ///< rounds ingested on the delta path
};

struct Case {
  std::string algo;
  std::string adversary;
  std::size_t n = 24;
  std::uint32_t k = 8;
  std::uint64_t seed = 5;
  const FaultSpec* fault = nullptr;
  ThreadPool* pool = nullptr;
};

Outcome run_case(const Case& c, Path path) {
  const std::unique_ptr<Adversary> inner =
      build_adversary(AdversarySpec::parse(c.adversary), c.n, c.seed);
  ForwardingAdversary forwarding(*inner);
  UncommittedAdversary uncommitted(*inner);
  Adversary& adversary = path == Path::kDelta ? static_cast<Adversary&>(forwarding)
                                              : static_cast<Adversary&>(uncommitted);
  FaultPlan plan(c.fault != nullptr ? *c.fault : FaultSpec{}, c.n, c.seed);
  AlgoBuildContext ctx;
  ctx.n = c.n;
  ctx.k = c.k;
  ctx.seed = c.seed;
  ctx.cap = 1500;
  ctx.pool = c.pool;
  if (c.fault != nullptr) ctx.faults = &plan;
  const std::uint64_t before = RoundIngest::delta_rounds_total();
  Outcome out;
  const RunResult res = run_algo(AlgoSpec::parse(c.algo), ctx, adversary);
  out.delta_rounds = RoundIngest::delta_rounds_total() - before;
  out.metrics = res.metrics;
  out.checksum = run_payload_checksum(c.n, ctx.k_realized, res);
  return out;
}

void expect_identical(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_EQ(a.checksum, b.checksum) << what;
  const RunMetrics& x = a.metrics;
  const RunMetrics& y = b.metrics;
  EXPECT_EQ(x.unicast.token, y.unicast.token) << what;
  EXPECT_EQ(x.unicast.completeness, y.unicast.completeness) << what;
  EXPECT_EQ(x.unicast.request, y.unicast.request) << what;
  EXPECT_EQ(x.unicast.control, y.unicast.control) << what;
  EXPECT_EQ(x.broadcasts, y.broadcasts) << what;
  EXPECT_EQ(x.tc, y.tc) << what;
  EXPECT_EQ(x.deletions, y.deletions) << what;
  EXPECT_EQ(x.learnings, y.learnings) << what;
  EXPECT_EQ(x.duplicate_token_deliveries, y.duplicate_token_deliveries) << what;
  EXPECT_EQ(x.virtual_steps, y.virtual_steps) << what;
  EXPECT_EQ(x.rounds, y.rounds) << what;
  EXPECT_EQ(x.completed, y.completed) << what;
  EXPECT_EQ(x.status, y.status) << what;
  EXPECT_EQ(x.coverage, y.coverage) << what;
}

class IngestIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_path_ = new std::string(::testing::TempDir() + "ingest_identity_" +
                                  std::to_string(::getpid()) + ".dgt");
    SigmaStableChurnConfig cfg;
    cfg.n = kN;
    cfg.target_edges = 3 * kN;
    cfg.churn_per_interval = kN / 3;
    cfg.sigma = 2;
    cfg.seed = 13;
    const std::unique_ptr<TraceWriter> writer =
        open_trace_writer(*trace_path_, kN, cfg.seed, "");
    generate_sigma_churn_trace(cfg, 300, *writer);
    writer->finish();
  }
  static void TearDownTestSuite() {
    std::remove(trace_path_->c_str());
    delete trace_path_;
    trace_path_ = nullptr;
  }

  static constexpr std::size_t kN = 24;
  static std::string* trace_path_;
};

std::string* IngestIdentity::trace_path_ = nullptr;

TEST_F(IngestIdentity, DeltaAndFullPathsGiveIdenticalRuns) {
  FaultSpec amnesia;
  amnesia.crash = 0.02;
  amnesia.recover = 0.3;
  amnesia.amnesia = true;
  FaultSpec crash_recover;
  crash_recover.crash = 0.02;
  crash_recover.recover = 0.3;
  FaultSpec drop_dup;
  drop_dup.drop = 0.1;
  drop_dup.dup = 0.05;
  const std::vector<std::pair<std::string, const FaultSpec*>> faults = {
      {"none", nullptr}, {"amnesia", &amnesia}, {"crash/recover", &crash_recover},
      {"drop+dup", &drop_dup}};
  const std::vector<std::string> schedules = {
      "churn:churn=6,edges=72", "sigma:interval=3,turnover=0.3", "cutter:p=0.7",
      "static:graph=gnp,p=0.3", "trace:file=" + *trace_path_};
  ThreadPool pool(8);
  std::size_t cases = 0;
  for (const AlgoFamily* family : AlgoRegistry::global().list()) {
    for (const std::string& schedule : schedules) {
      const bool is_static = schedule.rfind("static:", 0) == 0;
      if (family->requires_static && !is_static) continue;
      // The request cutter reads unicast traffic; it has no broadcast round.
      if (family->engine == AlgoEngine::kBroadcast && schedule.rfind("cutter:", 0) == 0) {
        continue;
      }
      for (const auto& [fault_name, fault] : faults) {
        // The static spanning-tree pipeline assumes fault-free delivery
        // (a crash or a duplicate trips its own invariants).
        if (family->requires_static && fault != nullptr) continue;
        Case c;
        c.algo = family->name;
        c.adversary = schedule;
        c.fault = fault;
        const std::string what =
            family->name + " over " + schedule + ", faults " + fault_name;
        const Outcome delta = run_case(c, Path::kDelta);
        const Outcome full = run_case(c, Path::kFull);
        expect_identical(delta, full, what);
        // The forwarding decorator must really reach the delta path: every
        // round after each engine's first (Algorithm 2 may run two engines,
        // one per phase).  The uncommitted decorator must never.
        const std::uint64_t engines = family->name == "oblivious" ? 2 : 1;
        EXPECT_GT(delta.delta_rounds, 0u) << what;
        EXPECT_LE(delta.metrics.rounds - delta.delta_rounds, engines) << what;
        EXPECT_EQ(full.delta_rounds, 0u) << what;
        c.pool = &pool;
        expect_identical(run_case(c, Path::kDelta), delta, what + ", 8 threads");
        ++cases;
      }
    }
  }
  // 8 families x 5 schedules x 4 fault specs, less the 2 broadcast
  // families' cutter cases, plus spanning_tree's fault-free static case.
  EXPECT_EQ(cases, 8u * 5u * 4u - 2u * 4u + 1u);
}

TEST_F(IngestIdentity, ShardedRoundsTakeTheDeltaPath) {
  // At n = 4096 the unicast engine shards its send and delivery phases
  // across the pool; the ingest stays serial and must not care.
  Case c;
  c.algo = "single_source";
  c.adversary = "churn:churn=512,edges=16384";
  c.n = 4096;
  c.k = 2;
  const Outcome serial = run_case(c, Path::kFull);
  ThreadPool pool(8);
  c.pool = &pool;
  const Outcome sharded = run_case(c, Path::kDelta);
  expect_identical(sharded, serial, "single_source n=4096");
  EXPECT_EQ(sharded.delta_rounds + 1, static_cast<std::uint64_t>(sharded.metrics.rounds));
}

}  // namespace
}  // namespace dyngossip
