// Tests for the unicast round engine (Section 3 order of play).
#include "engine/unicast_engine.hpp"

#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "adversary/scripted.hpp"
#include "adversary/static_adversary.hpp"
#include "graph/generators.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {
namespace {

/// Test stub: pushes every held token to every neighbor, once per neighbor
/// per token (relay flooding over unicast).
class StubRelay : public UnicastAlgorithm {
 public:
  StubRelay(std::size_t k, KnowledgeSet initial) : known_(std::move(initial)) {
    (void)k;
  }

  void send(Round /*r*/, std::span<const NodeId> neighbors, Outbox& out) override {
    for (const NodeId w : neighbors) {
      for (const std::size_t t : known_.set_positions()) {
        if (!sent_[w].count(static_cast<TokenId>(t))) {
          out.send(w, Message::token_msg(static_cast<TokenId>(t)));
          sent_[w].insert(static_cast<TokenId>(t));
          break;  // one token per neighbor per round (bandwidth discipline)
        }
      }
    }
  }
  void on_receive(Round /*r*/, NodeId /*from*/, const Message& m) override {
    if (m.type == MsgType::kToken) known_.set(m.token);
  }

 private:
  KnowledgeSet known_;
  std::unordered_map<NodeId, std::unordered_set<TokenId>> sent_;
};

std::vector<KnowledgeSet> one_holder(std::size_t n, std::size_t k, NodeId holder) {
  std::vector<KnowledgeSet> init(n, KnowledgeSet(k));
  for (std::size_t t = 0; t < k; ++t) init[holder].set(t);
  return init;
}

std::vector<std::unique_ptr<UnicastAlgorithm>> relays(
    std::size_t n, std::size_t k, const std::vector<KnowledgeSet>& init) {
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  for (std::size_t v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<StubRelay>(k, init[v]));
  }
  return nodes;
}

TEST(UnicastEngine, DeliveryIsEndOfRound) {
  constexpr std::size_t n = 3, k = 1;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  UnicastEngine engine(relays(n, k, init), adversary, init, k);
  engine.step();  // 0 -> 1 delivered at end of round 1
  EXPECT_TRUE(engine.knowledge_of(1).test(0));
  EXPECT_FALSE(engine.knowledge_of(2).test(0));
  engine.step();  // 1 -> 2
  EXPECT_TRUE(engine.knowledge_of(2).test(0));
  EXPECT_TRUE(engine.all_complete());
  EXPECT_EQ(engine.metrics().unicast.token, 3u);  // 0->1, 1->0(dup), 1->2
  EXPECT_EQ(engine.metrics().learnings, 2u);
  EXPECT_EQ(engine.metrics().duplicate_token_deliveries, 1u);
}

TEST(UnicastEngine, ProbeSamplesEveryRoundAndSumsToTotals) {
  constexpr std::size_t n = 6, k = 4;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  RoundProbe probe;
  UnicastEngineOptions opts;
  opts.telemetry.probe = &probe;
  UnicastEngine engine(relays(n, k, init), adversary, init, k, opts);
  engine.run(10'000);
  ASSERT_TRUE(engine.all_complete());
  ASSERT_EQ(probe.samples().size(), engine.metrics().rounds);
  std::uint64_t sent = 0, learned = 0;
  for (std::size_t i = 0; i < probe.samples().size(); ++i) {
    const RoundProbeSample& s = probe.samples()[i];
    EXPECT_EQ(s.round, i + 1);
    EXPECT_EQ(s.edges, n - 1);  // static path
    sent += s.sent;
    learned += s.learned;
  }
  EXPECT_EQ(sent, engine.metrics().total_messages());
  EXPECT_EQ(learned, engine.metrics().learnings);
}

TEST(UnicastEngine, PerTypeCounting) {
  constexpr std::size_t n = 2, k = 1;
  /// Sends one message of each type to its only neighbor each round.
  class MultiTyped : public UnicastAlgorithm {
   public:
    explicit MultiTyped(bool holder) : holder_(holder) {}
    void send(Round /*r*/, std::span<const NodeId> neighbors, Outbox& out) override {
      for (const NodeId w : neighbors) {
        if (holder_) out.send(w, Message::token_msg(0));
        out.send(w, Message::completeness(0, 1));
        out.send(w, Message::request(0));
        out.send(w, Message::control(ControlKind::kCenterAnnounce));
      }
    }
    void on_receive(Round, NodeId, const Message&) override {}

   private:
    bool holder_;
  };
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<MultiTyped>(true));
  nodes.push_back(std::make_unique<MultiTyped>(false));
  UnicastEngine engine(std::move(nodes), adversary, init, k);
  engine.step();
  const MessageCounts& c = engine.metrics().unicast;
  EXPECT_EQ(c.token, 1u);
  EXPECT_EQ(c.completeness, 2u);
  EXPECT_EQ(c.request, 2u);
  EXPECT_EQ(c.control, 2u);
  EXPECT_EQ(c.total(), 7u);
}

/// Sends to a node that is not a neighbor: must abort.
class BadTarget : public UnicastAlgorithm {
 public:
  void send(Round /*r*/, std::span<const NodeId> /*neighbors*/, Outbox& out) override {
    out.send(2, Message::request(0));  // node 2 is not adjacent to node 0 on a path of 3
  }
  void on_receive(Round, NodeId, const Message&) override {}
};

TEST(UnicastEngineDeath, NonNeighborTargetRejected) {
  StaticAdversary adversary(path_graph(3));
  std::vector<KnowledgeSet> init(3, KnowledgeSet(1));
  init[0].set(0);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<BadTarget>());
  nodes.push_back(std::make_unique<StubRelay>(1, init[1]));
  nodes.push_back(std::make_unique<StubRelay>(1, init[2]));
  UnicastEngine engine(std::move(nodes), adversary, init, 1);
  EXPECT_DEATH(engine.step(), "DG_CHECK");
}

/// Floods one edge past the bandwidth cap: must abort.
class BandwidthHog : public UnicastAlgorithm {
 public:
  void send(Round /*r*/, std::span<const NodeId> neighbors, Outbox& out) override {
    for (int i = 0; i < 5; ++i) out.send(neighbors[0], Message::request(0));
  }
  void on_receive(Round, NodeId, const Message&) override {}
};

TEST(UnicastEngineDeath, BandwidthCapEnforced) {
  StaticAdversary adversary(path_graph(2));
  std::vector<KnowledgeSet> init(2, KnowledgeSet(1));
  init[0].set(0);
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<BandwidthHog>());
  nodes.push_back(std::make_unique<BandwidthHog>());
  UnicastEngine engine(std::move(nodes), adversary, init, 1);
  EXPECT_DEATH(engine.step(), "DG_CHECK");
}

/// Ships a token it does not hold: must abort (token forwarding).
class TokenFabricator : public UnicastAlgorithm {
 public:
  void send(Round /*r*/, std::span<const NodeId> neighbors, Outbox& out) override {
    out.send(neighbors[0], Message::token_msg(0));
  }
  void on_receive(Round, NodeId, const Message&) override {}
};

TEST(UnicastEngineDeath, TokenForwardingEnforced) {
  StaticAdversary adversary(path_graph(2));
  std::vector<KnowledgeSet> init(2, KnowledgeSet(1));  // nobody holds 0
  std::vector<std::unique_ptr<UnicastAlgorithm>> nodes;
  nodes.push_back(std::make_unique<TokenFabricator>());
  nodes.push_back(std::make_unique<TokenFabricator>());
  UnicastEngine engine(std::move(nodes), adversary, init, 1);
  EXPECT_DEATH(engine.step(), "DG_CHECK");
}

TEST(UnicastEngine, RunUntilPredicate) {
  constexpr std::size_t n = 4, k = 1;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  UnicastEngine engine(relays(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run_until(
      [](const UnicastEngine& e) { return e.knowledge_of(1).test(0); }, 100);
  EXPECT_EQ(m.rounds, 1u);
  EXPECT_FALSE(m.completed);  // node 3 does not know the token yet
}

TEST(UnicastEngine, SharedTrackerAndStartRoundContinuation) {
  constexpr std::size_t n = 3, k = 1;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  DynamicGraphTracker tracker(n);

  UnicastEngineOptions o1;
  o1.tracker = &tracker;
  UnicastEngine first(relays(n, k, init), adversary, init, k, o1);
  first.step();
  EXPECT_EQ(tracker.topological_changes(), 2u);  // the path's 2 edges

  // A second engine continues the same execution: no re-counted insertions.
  std::vector<KnowledgeSet> mid;
  for (NodeId v = 0; v < n; ++v) mid.push_back(first.knowledge_of(v));
  UnicastEngineOptions o2;
  o2.tracker = &tracker;
  o2.start_round = first.round() + 1;
  UnicastEngine second(relays(n, k, mid), adversary, mid, k, o2);
  second.run(100);
  EXPECT_TRUE(second.all_complete());
  EXPECT_EQ(tracker.topological_changes(), 2u);  // static graph: no new TC
  EXPECT_EQ(second.metrics().tc, 0u);
}

TEST(UnicastEngine, MaxRoundsStopsIncompleteRun) {
  constexpr std::size_t n = 6, k = 1;
  StaticAdversary adversary(path_graph(n));
  auto init = one_holder(n, k, 0);
  UnicastEngine engine(relays(n, k, init), adversary, init, k);
  const RunMetrics m = engine.run(2);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.rounds, 2u);
}

}  // namespace
}  // namespace dyngossip
