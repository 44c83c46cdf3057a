// Differential test of the unicast engine's active-node frontier: a run in
// which Algorithm 1 nodes park (the engine skips their send steps and
// resumes them from deliveries and the topology diff) must be
// byte-identical to a run in which no node ever parks.  The never-parking
// run wraps each SingleSourceNode in a forwarder that keeps the
// UnicastAlgorithm defaults, so the comparison needs no engine option.
// The grid covers every adversary shape that moves edges differently
// (churn, σ-stable bursts, the adaptive request cutter, a static graph,
// smoothed and plain trace replay), and runs with and without a fault plan
// (which turns parking off).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "adversary/sigma_stable.hpp"
#include "core/single_source.hpp"
#include "engine/unicast_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

/// Send calls and resumes seen by the wrapped nodes.
struct CallCounts {
  std::uint64_t sends = 0;
  std::uint64_t resumes = 0;
};

/// Forwards to a SingleSourceNode.  With `park` false it keeps the
/// never-parking defaults; with `park` true it forwards the parking
/// contract too (and then behaves like the bare node, counting calls).
class ForwardingNode final : public UnicastAlgorithm {
 public:
  ForwardingNode(NodeId self, const SingleSourceConfig& cfg, bool park,
                 CallCounts& counts)
      : inner_(self, cfg), park_(park), counts_(counts) {}

  void send(Round r, std::span<const NodeId> neighbors, Outbox& out) override {
    ++counts_.sends;
    inner_.send(r, neighbors, out);
  }
  void on_receive(Round r, NodeId from, const Message& m) override {
    inner_.on_receive(r, from, m);
  }
  [[nodiscard]] bool parked() const override { return park_ && inner_.parked(); }
  [[nodiscard]] bool wakes_on(NodeId w) const override { return inner_.wakes_on(w); }
  void resume(Round r, std::span<const NodeId> neighbors,
              const DynamicGraphTracker& tracker) override {
    ++counts_.resumes;
    inner_.resume(r, neighbors, tracker);
  }

 private:
  SingleSourceNode inner_;
  bool park_;
  CallCounts& counts_;
};

enum class Nodes { kBare, kNeverPark, kCountedPark };

struct Outcome {
  RunMetrics metrics;
  std::uint64_t checksum = 0;
  std::vector<std::vector<std::size_t>> knowledge;
  std::uint64_t sends = 0;    ///< send calls (wrapped nodes only)
  std::uint64_t resumes = 0;  ///< resumes (wrapped nodes only)
};

struct Case {
  std::string adversary;
  std::size_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  const FaultSpec* fault = nullptr;
};

Outcome run_case(const Case& c, Nodes nodes) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(c.adversary), c.n, c.seed);
  FaultPlan plan(c.fault != nullptr ? *c.fault : FaultSpec{}, c.n, c.seed);
  const SingleSourceConfig cfg{c.n, c.k, 0};
  Outcome out;
  CallCounts calls;
  std::vector<std::unique_ptr<UnicastAlgorithm>> algos;
  if (nodes == Nodes::kBare) {
    algos = SingleSourceNode::make_all(cfg);
  } else {
    for (NodeId v = 0; v < c.n; ++v) {
      algos.push_back(std::make_unique<ForwardingNode>(
          v, cfg, nodes == Nodes::kCountedPark, calls));
    }
  }
  UnicastEngineOptions opts;
  if (c.fault != nullptr) opts.faults = &plan;
  UnicastEngine engine(std::move(algos), *adversary,
                       SingleSourceNode::initial_knowledge(cfg), c.k, opts);
  out.metrics = engine.run(static_cast<Round>(40 * c.n * c.k));
  RunResult res;
  res.metrics = out.metrics;
  res.rounds = out.metrics.rounds;
  res.completed = out.metrics.completed;
  out.checksum = run_payload_checksum(c.n, c.k, res);
  out.sends = calls.sends;
  out.resumes = calls.resumes;
  for (NodeId v = 0; v < c.n; ++v) {
    out.knowledge.push_back(engine.knowledge_of(v).set_positions());
  }
  return out;
}

void expect_identical(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_EQ(a.checksum, b.checksum) << what;
  EXPECT_EQ(a.metrics.unicast.token, b.metrics.unicast.token) << what;
  EXPECT_EQ(a.metrics.unicast.completeness, b.metrics.unicast.completeness) << what;
  EXPECT_EQ(a.metrics.unicast.request, b.metrics.unicast.request) << what;
  EXPECT_EQ(a.metrics.unicast.control, b.metrics.unicast.control) << what;
  EXPECT_EQ(a.metrics.tc, b.metrics.tc) << what;
  EXPECT_EQ(a.metrics.deletions, b.metrics.deletions) << what;
  EXPECT_EQ(a.metrics.learnings, b.metrics.learnings) << what;
  EXPECT_EQ(a.metrics.duplicate_token_deliveries,
            b.metrics.duplicate_token_deliveries) << what;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << what;
  EXPECT_EQ(a.metrics.status, b.metrics.status) << what;
  EXPECT_EQ(a.metrics.coverage, b.metrics.coverage) << what;
  EXPECT_EQ(a.knowledge, b.knowledge) << what;
}

class ParkingIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One σ-stable schedule on disk serves both file-backed families.
    trace_path_ = new std::string(::testing::TempDir() + "parking_identity_" +
                                  std::to_string(::getpid()) + ".dgt");
    SigmaStableChurnConfig cfg;
    cfg.n = kTraceN;
    cfg.target_edges = 3 * kTraceN;
    cfg.churn_per_interval = kTraceN / 2;
    cfg.sigma = 3;
    cfg.seed = 11;
    const std::unique_ptr<TraceWriter> writer =
        open_trace_writer(*trace_path_, kTraceN, cfg.seed, "");
    generate_sigma_churn_trace(cfg, 400, *writer);
    writer->finish();
  }
  static void TearDownTestSuite() {
    std::remove(trace_path_->c_str());
    delete trace_path_;
    trace_path_ = nullptr;
  }

  static std::vector<std::string> adversaries() {
    return {"churn:rate=0.1,sigma=2",
            "churn:rate=0.3",
            "sigma:interval=3,turnover=0.3",
            "cutter:p=0.7",
            "static:graph=gnp,p=0.2",
            "smoothed:flips=6,base=" + *trace_path_,
            "trace:file=" + *trace_path_};
  }

  static constexpr std::size_t kTraceN = 40;
  static std::string* trace_path_;
};

std::string* ParkingIdentity::trace_path_ = nullptr;

TEST_F(ParkingIdentity, ParkedRunsMatchNeverParkedRuns) {
  FaultSpec spec;
  spec.drop = 0.05;
  spec.dup = 0.05;
  spec.crash = 0.01;
  spec.recover = 0.3;
  spec.amnesia = true;
  const FaultSpec* fault = &spec;
  for (const std::string& adversary : adversaries()) {
    for (const std::uint64_t seed : {3u, 17u}) {
      for (const FaultSpec* f : {static_cast<const FaultSpec*>(nullptr), fault}) {
        Case c;
        c.adversary = adversary;
        c.n = kTraceN;
        c.k = seed == 3 ? 12 : 31;
        c.seed = seed;
        c.fault = f;
        const std::string what = adversary + " seed=" + std::to_string(seed) +
                                 (f != nullptr ? " faulted" : "");
        const Outcome bare = run_case(c, Nodes::kBare);
        expect_identical(run_case(c, Nodes::kNeverPark), bare, what);
        const Outcome counted = run_case(c, Nodes::kCountedPark);
        expect_identical(counted, bare, what);
        // The frontier must actually skip work (else this test gates
        // nothing) — except under a fault plan, which disables parking.
        const std::uint64_t node_rounds = c.n * bare.metrics.rounds;
        if (f == nullptr) {
          EXPECT_LT(counted.sends, node_rounds) << what;
        } else {
          EXPECT_EQ(counted.resumes, 0u) << what;
        }
      }
    }
  }
}

TEST_F(ParkingIdentity, ChurnedRunsResumeSleepingNodes) {
  // Under heavy per-round churn many nodes sleep through edge changes and
  // must be resynchronised on waking — the path the exactness fix covers.
  std::uint64_t resumes = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Case c;
    c.adversary = "churn:rate=0.5,sigma=1";
    c.n = 48;
    c.k = 31;
    c.seed = seed;
    const Outcome counted = run_case(c, Nodes::kCountedPark);
    expect_identical(counted, run_case(c, Nodes::kNeverPark),
                     "churn seed=" + std::to_string(seed));
    resumes += counted.resumes;
  }
  EXPECT_GT(resumes, 0u);
}

}  // namespace
}  // namespace dyngossip
