// Tests for the local-broadcast round engine (Section 2 order of play).
#include "engine/broadcast_engine.hpp"

#include <gtest/gtest.h>

#include "adversary/scripted.hpp"
#include "adversary/static_adversary.hpp"
#include "graph/generators.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

/// Test stub: broadcasts a fixed token while held, else stays silent.
class StubBroadcaster : public BroadcastAlgorithm {
 public:
  StubBroadcaster(std::size_t k, KnowledgeSet initial, TokenId speak)
      : known_(std::move(initial)), speak_(speak), k_(k) {}

  TokenId choose_broadcast(Round /*r*/) override {
    return known_.test(speak_) ? speak_ : kNoToken;
  }
  void on_receive(Round /*r*/, std::span<const TokenId> tokens) override {
    for (const TokenId t : tokens) known_.set(t);
  }

 private:
  KnowledgeSet known_;
  TokenId speak_;
  std::size_t k_;
};

std::vector<KnowledgeSet> one_holder(std::size_t n, std::size_t k, NodeId holder) {
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[holder].set(t);
  return init;
}

TEST(BroadcastEngine, TokenFloodsAlongPath) {
  constexpr std::size_t n = 5, k = 1;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  for (std::size_t v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<StubBroadcaster>(k, init[v], 0));
  }
  BroadcastEngine engine(std::move(nodes), adversary, init, k);
  const RunMetrics m = engine.run(100);
  EXPECT_TRUE(m.completed);
  // One hop per round along the path: exactly n-1 rounds.
  EXPECT_EQ(m.rounds, n - 1);
  EXPECT_EQ(m.learnings, n - 1);
  // Broadcast counting: node v starts broadcasting the round after learning;
  // node at distance d broadcasts in rounds d+1..n-1 => sum_{d=0}^{n-2}(n-1-d).
  EXPECT_EQ(m.broadcasts, 4u + 3u + 2u + 1u);
}

TEST(BroadcastEngine, SilenceCostsNothing) {
  constexpr std::size_t n = 3, k = 1;
  StaticAdversary adversary(path_graph(n));
  // Nobody holds token 0 => everyone silent forever.
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  init[0].set(0);
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  for (std::size_t v = 0; v < n; ++v) {
    // speak_ = 0 but only node 0 holds it; others stay ⊥.
    nodes.push_back(std::make_unique<StubBroadcaster>(k, init[v], 0));
  }
  BroadcastEngine engine(std::move(nodes), adversary, init, k);
  engine.step();
  EXPECT_EQ(engine.metrics().broadcasts, 1u);  // only the holder spoke
}

TEST(BroadcastEngine, TrackerAccumulatesTC) {
  std::vector<Graph> script;
  script.push_back(path_graph(4));   // 3 insertions
  script.push_back(cycle_graph(4));  // path 0-1-2-3 + edge {0,3}: 1 insertion
  script.push_back(path_graph(4));   // remove {0,3}
  ScriptedAdversary adversary(std::move(script));
  auto init = one_holder(4, 1, 0);
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  for (std::size_t v = 0; v < 4; ++v) {
    nodes.push_back(std::make_unique<StubBroadcaster>(1, init[v], 0));
  }
  BroadcastEngine engine(std::move(nodes), adversary, init, 1);
  engine.step();
  engine.step();
  engine.step();
  EXPECT_EQ(engine.metrics().tc, 4u);
  EXPECT_EQ(engine.metrics().deletions, 1u);
}

TEST(BroadcastEngine, LearningLogRecordsEvents) {
  constexpr std::size_t n = 3, k = 2;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  for (std::size_t v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<StubBroadcaster>(k, init[v], 0));
  }
  BroadcastEngineOptions opts;
  opts.record_learning_events = true;
  BroadcastEngine engine(std::move(nodes), adversary, init, k, opts);
  engine.step();  // node 1 learns token 0
  ASSERT_EQ(engine.learning_log().events().size(), 1u);
  const LearningEvent e = engine.learning_log().events()[0];
  EXPECT_EQ(e.node, 1u);
  EXPECT_EQ(e.token, 0u);
  EXPECT_EQ(e.round, 1u);
}

TEST(BroadcastEngine, ProbeSamplesEveryRound) {
  StaticAdversary adversary(path_graph(3));
  auto init = one_holder(3, 1, 0);
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  for (std::size_t v = 0; v < 3; ++v) {
    nodes.push_back(std::make_unique<StubBroadcaster>(1, init[v], 0));
  }
  RoundProbe probe;
  BroadcastEngineOptions opts;
  opts.telemetry.probe = &probe;
  BroadcastEngine engine(std::move(nodes), adversary, init, 1, opts);
  engine.run(100);
  std::vector<std::uint64_t> seen;
  for (const RoundProbeSample& s : probe.samples()) {
    EXPECT_EQ(s.edges, 2u);  // |E_r| of the static path
    seen.push_back(s.round);
  }
  const std::vector<std::uint64_t> want{1, 2};
  EXPECT_EQ(seen, want);
}

/// An algorithm that violates token forwarding (broadcasts a token it does
/// not hold) must be rejected by the engine.
class CheatingBroadcaster : public BroadcastAlgorithm {
 public:
  TokenId choose_broadcast(Round /*r*/) override { return 0; }
  void on_receive(Round, std::span<const TokenId>) override {}
};

TEST(BroadcastEngineDeath, TokenForwardingEnforced) {
  StaticAdversary adversary(path_graph(2));
  std::vector<KnowledgeSet> init(2, KnowledgeSet(1));  // nobody holds token 0
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<CheatingBroadcaster>());
  nodes.push_back(std::make_unique<CheatingBroadcaster>());
  BroadcastEngine engine(std::move(nodes), adversary, init, 1);
  EXPECT_DEATH(engine.step(), "DG_CHECK");
}

TEST(BroadcastEngine, AlreadyCompleteRunsZeroRounds) {
  StaticAdversary adversary(path_graph(2));
  std::vector<KnowledgeSet> init(2, KnowledgeSet(1, /*initially_set=*/true));
  std::vector<std::unique_ptr<BroadcastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<StubBroadcaster>(1, init[0], 0));
  nodes.push_back(std::make_unique<StubBroadcaster>(1, init[1], 0));
  BroadcastEngine engine(std::move(nodes), adversary, init, 1);
  const RunMetrics m = engine.run(10);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.rounds, 0u);
  EXPECT_EQ(m.broadcasts, 0u);
}

}  // namespace
}  // namespace dyngossip
