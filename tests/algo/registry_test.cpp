// Algorithm-registry tests: spec grammar round-trips, unknown
// family/key rejection, and — the load-bearing part — per-family payload
// bit-identity between a registry-dispatched run and the hand-constructed
// run it replaces, plus seed/priority pinning through spec keys.
#include "algo/registry.hpp"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "adversary/static_adversary.hpp"
#include "core/flooding.hpp"
#include "core/multi_source.hpp"
#include "core/neighbor_exchange.hpp"
#include "core/random_flooding.hpp"
#include "core/single_source.hpp"
#include "core/spanning_tree.hpp"
#include "core/tokens.hpp"
#include "engine/broadcast_engine.hpp"
#include "engine/unicast_engine.hpp"
#include "graph/generators.hpp"
#include "sim/simulator.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

constexpr std::size_t kN = 24;
constexpr std::uint32_t kK = 32;
constexpr Round kCap = 200ull * kN * kK;
constexpr std::uint64_t kSeed = 4242;

/// Fresh churn adversary from a pinned spec — both the hand-built and the
/// registry run must see the same schedule, so each gets its own instance.
std::unique_ptr<Adversary> churn_adversary() {
  return build_adversary(AdversarySpec::parse("churn:sigma=3"), kN, kSeed);
}

/// Registry run under the shared context; returns the payload checksum.
std::uint64_t registry_checksum(const std::string& spec_text,
                                Adversary& adversary,
                                std::uint64_t* k_realized = nullptr) {
  AlgoBuildContext ctx;
  ctx.n = kN;
  ctx.k = kK;
  ctx.sources = 4;
  ctx.cap = kCap;
  ctx.seed = kSeed;
  const RunResult r = run_algo(AlgoSpec::parse(spec_text), ctx, adversary);
  if (k_realized != nullptr) *k_realized = ctx.k_realized;
  return run_payload_checksum(kN, ctx.k_realized, r);
}

TokenSpacePtr spread(std::size_t s) {
  std::vector<TokenSpace::SourceSpec> specs;
  for (std::size_t i = 0; i < s; ++i) {
    specs.push_back({static_cast<NodeId>(i * (kN / s)),
                     kK / static_cast<std::uint32_t>(s)});
  }
  return std::make_shared<TokenSpace>(TokenSpace::contiguous(specs));
}

// ---- spec grammar --------------------------------------------------------

TEST(AlgoSpec, ParseToStringRoundTrips) {
  for (const char* text :
       {"single_source", "single_source:priority=reversed,source=3",
        "flooding:sources=2", "random_flooding:seed=5,sources=1",
        "oblivious:f=8,force_phase1=true"}) {
    const AlgoSpec spec = AlgoSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(AlgoSpec::parse(spec.to_string()), spec);
  }
  // `family:` is the explicit no-params spelling; canonical form drops the
  // colon.
  EXPECT_EQ(AlgoSpec::parse("flooding:").to_string(), "flooding");
  // Keys come back sorted regardless of input order.
  EXPECT_EQ(AlgoSpec::parse("oblivious:force_phase1=true,f=8").to_string(),
            "oblivious:f=8,force_phase1=true");
}

TEST(AlgoSpec, ParseRejectsMalformedText) {
  EXPECT_THROW((void)AlgoSpec::parse(""), AlgoSpecError);
  EXPECT_THROW((void)AlgoSpec::parse("Flooding"), AlgoSpecError);
  EXPECT_THROW((void)AlgoSpec::parse("flooding:sources"), AlgoSpecError);
  EXPECT_THROW((void)AlgoSpec::parse("flooding:=1"), AlgoSpecError);
  EXPECT_THROW((void)AlgoSpec::parse("flooding:sources=1,sources=2"),
               AlgoSpecError);
}

TEST(AlgoRegistry, ValidatesFamiliesAndDeclaredKeys) {
  const AlgoRegistry& registry = AlgoRegistry::global();
  EXPECT_GE(registry.size(), 7u);
  for (const char* family :
       {"single_source", "multi_source", "flooding", "random_flooding",
        "neighbor_exchange", "oblivious", "spanning_tree"}) {
    EXPECT_NE(registry.find(family), nullptr) << family;
  }
  EXPECT_THROW(registry.validate(AlgoSpec::parse("bogus_family")),
               AlgoSpecError);
  EXPECT_THROW(registry.validate(AlgoSpec::parse("flooding:priority=paper")),
               AlgoSpecError);
  EXPECT_NO_THROW(registry.validate(AlgoSpec::parse("flooding:sources=2")));
}

TEST(AlgoRegistry, DeclaresEnginesAndStaticRequirements) {
  const AlgoRegistry& registry = AlgoRegistry::global();
  EXPECT_EQ(registry.find("single_source")->engine, AlgoEngine::kUnicast);
  EXPECT_EQ(registry.find("flooding")->engine, AlgoEngine::kBroadcast);
  EXPECT_EQ(registry.find("random_flooding")->engine, AlgoEngine::kBroadcast);
  EXPECT_EQ(registry.find("async_push")->engine, AlgoEngine::kAsync);
  EXPECT_EQ(registry.find("async_push_pull")->engine, AlgoEngine::kAsync);
  EXPECT_TRUE(registry.find("spanning_tree")->requires_static);
  EXPECT_FALSE(registry.find("single_source")->requires_static);
  EXPECT_FALSE(registry.find("async_push")->requires_static);
  EXPECT_STREQ(algo_engine_name(AlgoEngine::kBroadcast), "broadcast");
  EXPECT_STREQ(algo_engine_name(AlgoEngine::kAsync), "async");
}

TEST(AlgoRegistry, ScheduleCompatibilityPolicy) {
  const AlgoFamily& tree = *AlgoRegistry::global().find("spanning_tree");
  const AlgoFamily& single = *AlgoRegistry::global().find("single_source");
  std::string why;
  // Non-static-only families accept everything.
  EXPECT_TRUE(algo_schedule_compatible(single, AdversarySpec::parse("churn:")));
  // Static-only: the static family passes, synthetic dynamic families are
  // rejected with a reason.
  EXPECT_TRUE(
      algo_schedule_compatible(tree, AdversarySpec::parse("static:graph=gnp")));
  EXPECT_FALSE(algo_schedule_compatible(tree, AdversarySpec::parse("churn:"), &why));
  EXPECT_NE(why.find("static"), std::string::npos);
  EXPECT_FALSE(algo_schedule_compatible(
      tree, AdversarySpec::parse("smoothed:base=x.dgt"), &why));
}

TEST(AlgoRegistry, RejectsBadValuesAndContexts) {
  auto adversary = churn_adversary();
  AlgoBuildContext ctx;
  ctx.n = kN;
  ctx.k = kK;
  EXPECT_THROW((void)run_algo(AlgoSpec::parse("flooding:sources=4x"), ctx,
                              *adversary),
               AlgoSpecError);
  EXPECT_THROW((void)run_algo(AlgoSpec::parse("single_source:source=999"), ctx,
                              *adversary),
               AlgoSpecError);
  ctx.n = 1;
  EXPECT_THROW((void)run_algo(AlgoSpec::parse("single_source"), ctx, *adversary),
               AlgoSpecError);
}

// ---- per-family build-vs-hand-constructed bit-identity -------------------

TEST(AlgoFamilies, SingleSourceMatchesHandBuiltRun) {
  auto hand_adv = churn_adversary();
  const SingleSourceConfig cfg{kN, kK, 0};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), *hand_adv,
                       SingleSourceNode::initial_knowledge(cfg), kK);
  const RunResult hand = to_run_result(engine.run(kCap));
  auto reg_adv = churn_adversary();
  EXPECT_EQ(registry_checksum("single_source", *reg_adv),
            run_payload_checksum(kN, kK, hand));
}

TEST(AlgoFamilies, MultiSourceMatchesHandBuiltRun) {
  auto hand_adv = churn_adversary();
  const TokenSpacePtr space = spread(4);
  UnicastEngine engine(MultiSourceNode::make_all({kN, space}), *hand_adv,
                       space->initial_knowledge(kN), space->total_tokens());
  const RunResult hand = to_run_result(engine.run(kCap));
  auto reg_adv = churn_adversary();
  std::uint64_t k_realized = 0;
  EXPECT_EQ(registry_checksum("multi_source", *reg_adv, &k_realized),
            run_payload_checksum(kN, space->total_tokens(), hand));
  EXPECT_EQ(k_realized, space->total_tokens());
}

TEST(AlgoFamilies, FloodingMatchesHandBuiltRun) {
  auto hand_adv = churn_adversary();
  const auto init = TokenSpace::single_source(0, kK).initial_knowledge(kN);
  BroadcastEngine engine(PhaseFloodingNode::make_all(kN, kK, init), *hand_adv, init, kK);
  const RunResult hand = to_run_result(engine.run(kCap));
  auto reg_adv = churn_adversary();
  EXPECT_EQ(registry_checksum("flooding", *reg_adv),
            run_payload_checksum(kN, kK, hand));
}

TEST(AlgoFamilies, RandomFloodingMatchesHandBuiltRunAndPinsSeed) {
  const auto init = TokenSpace::single_source(0, kK).initial_knowledge(kN);
  auto hand_adv = churn_adversary();
  BroadcastEngine engine(RandomFloodingNode::make_all(kN, kK, init, /*seed=*/5),
                         *hand_adv, init, kK);
  const RunResult hand = to_run_result(engine.run(kCap));
  // seed=5 in the spec wins over the context's kSeed — the hand run above
  // used 5, so only the pinned spec matches it.
  auto reg_adv = churn_adversary();
  EXPECT_EQ(registry_checksum("random_flooding:seed=5", *reg_adv),
            run_payload_checksum(kN, kK, hand));
  // The unpinned spec follows the context seed (kSeed != 5): same schedule,
  // different token picks.
  auto reg_adv2 = churn_adversary();
  EXPECT_NE(registry_checksum("random_flooding", *reg_adv2),
            run_payload_checksum(kN, kK, hand));
}

TEST(AlgoFamilies, NeighborExchangeMatchesHandBuiltRun) {
  auto hand_adv = churn_adversary();
  const auto init = TokenSpace::single_source(0, kK).initial_knowledge(kN);
  UnicastEngine engine(NeighborExchangeNode::make_all(kN, kK, init), *hand_adv,
                       init, kK);
  const RunResult hand = to_run_result(engine.run(kCap));
  auto reg_adv = churn_adversary();
  EXPECT_EQ(registry_checksum("neighbor_exchange", *reg_adv),
            run_payload_checksum(kN, kK, hand));
}

TEST(AlgoFamilies, ObliviousMatchesHandBuiltRun) {
  const TokenSpacePtr space = spread(4);
  auto hand_adv = churn_adversary();
  ObliviousMsOptions opts;
  opts.seed = kSeed;
  opts.max_rounds = kCap;
  const ObliviousMsResult r =
      run_oblivious_multi_source(kN, space, *hand_adv, opts);
  RunResult hand;
  hand.metrics = r.total;
  hand.rounds = r.total.rounds;
  hand.completed = r.completed;
  auto reg_adv = churn_adversary();
  EXPECT_EQ(registry_checksum("oblivious", *reg_adv),
            run_payload_checksum(kN, space->total_tokens(), hand));
}

TEST(AlgoFamilies, SpanningTreeMatchesHandBuiltRunOnAStaticGraph) {
  const auto space = std::make_shared<TokenSpace>(TokenSpace::single_source(0, kK));
  StaticAdversary hand_adv(complete_graph(kN));
  UnicastEngine engine(SpanningTreeNode::make_all({kN, space, 0}), hand_adv,
                       space->initial_knowledge(kN), kK);
  const RunResult hand = to_run_result(engine.run(kCap));
  StaticAdversary reg_adv(complete_graph(kN));
  EXPECT_EQ(registry_checksum("spanning_tree", reg_adv),
            run_payload_checksum(kN, kK, hand));
}

// ---- spec knobs ----------------------------------------------------------

TEST(AlgoFamilies, PriorityKnobPinsTheAblationVariant) {
  // Under the adaptive request cutter the priority order changes which
  // edges carry requests, so the reversed variant must (a) bit-match the
  // hand-built reversed engine and (b) diverge from the paper order.
  const auto cutter = [] {
    return build_adversary(AdversarySpec::parse("cutter:p=0.6"), kN, kSeed);
  };
  auto hand_adv = cutter();
  SingleSourceConfig cfg{kN, kK, 0, RequestPriority::kReversed};
  UnicastEngine engine(SingleSourceNode::make_all(cfg), *hand_adv,
                       SingleSourceNode::initial_knowledge(cfg), kK);
  const RunResult hand = to_run_result(engine.run(kCap));

  auto reg_adv = cutter();
  const std::uint64_t reversed =
      registry_checksum("single_source:priority=reversed", *reg_adv);
  EXPECT_EQ(reversed, run_payload_checksum(kN, kK, hand));

  auto paper_adv = cutter();
  EXPECT_NE(registry_checksum("single_source", *paper_adv), reversed);
}

TEST(AlgoFamilies, InitialKnowledgeOverrideIsHonoredWhereItMakesSense) {
  // flooding accepts an explicit K_v(0); the token-labelling families
  // reject it instead of silently diverging from their TokenSpace.
  std::vector<KnowledgeSet> init(kN, KnowledgeSet(kK));
  for (std::size_t t = 0; t < kK; ++t) init[t % kN].set(t);
  auto hand_adv = churn_adversary();
  BroadcastEngine engine(PhaseFloodingNode::make_all(kN, kK, init), *hand_adv, init, kK);
  const RunResult hand = to_run_result(engine.run(kCap));

  AlgoBuildContext ctx;
  ctx.n = kN;
  ctx.k = kK;
  ctx.cap = kCap;
  ctx.seed = kSeed;
  ctx.initial_knowledge = &init;
  auto reg_adv = churn_adversary();
  const RunResult reg = run_algo(AlgoSpec::parse("flooding"), ctx, *reg_adv);
  EXPECT_EQ(run_payload_checksum(kN, ctx.k_realized, reg),
            run_payload_checksum(kN, kK, hand));

  auto other_adv = churn_adversary();
  EXPECT_THROW(
      (void)run_algo(AlgoSpec::parse("single_source"), ctx, *other_adv),
      AlgoSpecError);
}

TEST(AlgoRegistry, PrivateInstancesRejectDuplicates) {
  AlgoRegistry registry;
  register_all_algorithms(registry);
  const std::size_t count = registry.size();
  register_all_algorithms(registry);  // idempotent
  EXPECT_EQ(registry.size(), count);
  EXPECT_THROW(registry.add({"", "", "", AlgoEngine::kUnicast, false, {}, {}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dyngossip
