// Adversary registry: spec parse/describe round-trips, unknown
// family/key rejection, and bit-identity of registry-built schedules
// against hand-constructed adversaries.
#include "adversary/registry.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "adversary/churn.hpp"
#include "adversary/sigma_stable.hpp"
#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

std::uint64_t payload_of(Adversary& adversary, std::size_t n, std::uint32_t k) {
  AlgoBuildContext ctx;
  ctx.n = n;
  ctx.k = k;
  ctx.cap = static_cast<Round>(100 * n * k);
  const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, adversary);
  return run_payload_checksum(n, k, r);
}

TEST(AdversarySpec, ParsesFamilyAloneAndKeyValueLists) {
  const AdversarySpec bare = AdversarySpec::parse("star");
  EXPECT_EQ(bare.family, "star");
  EXPECT_TRUE(bare.params.empty());
  EXPECT_EQ(bare.to_string(), "star");

  const AdversarySpec full = AdversarySpec::parse("sigma:turnover=0.03,interval=16");
  EXPECT_EQ(full.family, "sigma");
  ASSERT_EQ(full.params.size(), 2u);
  EXPECT_EQ(full.params.at("interval"), "16");
  EXPECT_EQ(full.params.at("turnover"), "0.03");
  // Canonical form sorts keys; re-parsing it is a fixed point.
  EXPECT_EQ(full.to_string(), "sigma:interval=16,turnover=0.03");
  EXPECT_EQ(AdversarySpec::parse(full.to_string()), full);
}

TEST(AdversarySpec, RejectsMalformedText) {
  for (const char* bad :
       {"", ":", "churn:rate", "churn:=3", "churn:rate=1,,",
        "churn:rate=1,x", "Churn:rate=1", "churn:ra te=1",
        "churn:rate=1,rate=2"}) {
    EXPECT_THROW((void)AdversarySpec::parse(bad), AdversarySpecError) << bad;
  }
  // `family:` is the explicit no-params spelling (shared grammar with the
  // algorithm registry, where `--algo=flooding:` is idiomatic).
  EXPECT_EQ(AdversarySpec::parse("churn:").to_string(), "churn");
}

TEST(AdversarySpec, SettersRoundTripNumbers) {
  AdversarySpec spec{"churn", {}};
  spec.set("edges", std::uint64_t{96}).set("rate", 0.03).set("graph", "gnp");
  EXPECT_EQ(spec.params.at("edges"), "96");
  EXPECT_EQ(spec.params.at("graph"), "gnp");
  // %.17g renders doubles exactly; strtod gets the same value back.
  EXPECT_EQ(std::strtod(spec.params.at("rate").c_str(), nullptr), 0.03);
}

TEST(AdversaryRegistry, GlobalListsEveryFamilyWithDescribedKeys) {
  const AdversaryRegistry& registry = AdversaryRegistry::global();
  for (const char* name : {"static", "churn", "fresh", "sigma", "star", "path",
                           "cutter", "lb", "scripted", "smoothed", "trace"}) {
    const AdversaryFamily* family = registry.find(name);
    ASSERT_NE(family, nullptr) << name;
    EXPECT_FALSE(family->description.empty()) << name;
    EXPECT_FALSE(family->example.empty()) << name;
  }
  EXPECT_EQ(registry.size(), 11u);
  EXPECT_EQ(registry.list().size(), 11u);
}

TEST(AdversaryRegistry, RejectsUnknownFamilyAndUnknownKey) {
  const AdversaryRegistry& registry = AdversaryRegistry::global();
  EXPECT_THROW(registry.validate(AdversarySpec::parse("bogus")),
               AdversarySpecError);
  EXPECT_THROW(registry.validate(AdversarySpec::parse("churn:rte=0.1")),
               AdversarySpecError);
  // Bad values surface at build time (parsing is strict).
  AdversaryBuildContext ctx;
  ctx.n = 16;
  EXPECT_THROW((void)registry.build("churn:rate=0.1x", ctx), AdversarySpecError);
  EXPECT_THROW((void)registry.build("cutter:p=1.5", ctx), AdversarySpecError);
  // Fraction-shaped keys reject values outside [0, 1] (a negative double
  // cast to size_t would be UB).
  EXPECT_THROW((void)registry.build("churn:rate=-0.5", ctx), AdversarySpecError);
  EXPECT_THROW((void)registry.build("sigma:turnover=1.5", ctx),
               AdversarySpecError);
  EXPECT_THROW((void)registry.build("static:graph=gnp,p=-1", ctx),
               AdversarySpecError);
  EXPECT_THROW((void)registry.build("static:graph=moebius", ctx),
               AdversarySpecError);
  // lb without run-side context must explain what is missing.
  EXPECT_THROW((void)registry.build("lb", ctx), AdversarySpecError);
  // Most families need a node count.
  EXPECT_THROW((void)registry.build("churn", AdversaryBuildContext{}),
               AdversarySpecError);
}

TEST(AdversaryRegistry, ChurnSpecMatchesHandConstructedSweep) {
  for (const std::size_t n : {24u, 48u}) {
    for (const double rate : {0.05, 0.25}) {
      const auto k = static_cast<std::uint32_t>(2 * n);
      const std::uint64_t seed = 4'400 + n;
      AdversarySpec spec{"churn", {}};
      spec.set("edges", static_cast<std::uint64_t>(3 * n))
          .set("rate", rate)
          .set("sigma", std::uint64_t{3});
      const std::unique_ptr<Adversary> built = build_adversary(spec, n, seed);

      ChurnConfig cc;
      cc.n = n;
      cc.target_edges = 3 * n;
      cc.churn_per_round =
          static_cast<std::size_t>(rate * static_cast<double>(3 * n));
      cc.sigma = 3;
      cc.seed = seed;
      ChurnAdversary hand(cc);

      EXPECT_EQ(payload_of(*built, n, k), payload_of(hand, n, k))
          << "n=" << n << " rate=" << rate;
    }
  }
}

TEST(AdversaryRegistry, SigmaTurnoverSpecMatchesHandConstructed) {
  const std::size_t n = 32;
  const auto k = static_cast<std::uint32_t>(2 * n);
  AdversarySpec spec{"sigma", {}};
  spec.set("edges", std::uint64_t{96})
      .set("turnover", 0.5)
      .set("interval", std::uint64_t{4});
  const std::unique_ptr<Adversary> built = build_adversary(spec, n, 99);

  SigmaStableChurnConfig sc;
  sc.n = n;
  sc.target_edges = 96;
  sc.churn_per_interval = 48;
  sc.sigma = 4;
  sc.seed = 99;
  SigmaStableChurnAdversary hand(sc);
  EXPECT_EQ(payload_of(*built, n, k), payload_of(hand, n, k));
}

TEST(AdversaryRegistry, ExplicitSeedKeyPinsTheScheduleAcrossContextSeeds) {
  const std::size_t n = 24;
  const auto k = static_cast<std::uint32_t>(n);
  const std::unique_ptr<Adversary> a =
      build_adversary(AdversarySpec::parse("churn:seed=5"), n, /*seed=*/1);
  const std::unique_ptr<Adversary> b =
      build_adversary(AdversarySpec::parse("churn:seed=5"), n, /*seed=*/2);
  EXPECT_EQ(payload_of(*a, n, k), payload_of(*b, n, k));
  // Without seed=, the context (per-trial) seed differentiates schedules.
  const std::unique_ptr<Adversary> c =
      build_adversary(AdversarySpec::parse("churn"), n, /*seed=*/1);
  const std::unique_ptr<Adversary> d =
      build_adversary(AdversarySpec::parse("churn"), n, /*seed=*/2);
  EXPECT_NE(payload_of(*c, n, k), payload_of(*d, n, k));
}

TEST(AdversaryRegistry, EveryRunnableFamilyCompletesASmallRun) {
  const std::size_t n = 16;
  const auto k = static_cast<std::uint32_t>(n);
  for (const char* text :
       {"static", "static:graph=gnp,p=0.3", "static:graph=cycle", "churn",
        "fresh", "sigma:interval=2", "star", "path", "cutter:p=0.3"}) {
    const std::unique_ptr<Adversary> adversary =
        build_adversary(AdversarySpec::parse(text), n, 7);
    AlgoBuildContext ctx;
    ctx.n = n;
    ctx.k = k;
    ctx.cap = static_cast<Round>(200 * n * k);
    const RunResult r = run_algo(AlgoSpec::parse("single_source"), ctx, *adversary);
    EXPECT_TRUE(r.completed) << text;
  }
}

TEST(AdversaryRegistry, ScriptedUsesContextScript) {
  AdversaryBuildContext ctx;
  ctx.n = 6;
  ctx.script = {path_graph(6), cycle_graph(6)};
  const std::unique_ptr<Adversary> adversary =
      AdversaryRegistry::global().build(AdversarySpec{"scripted", {}}, ctx);
  EXPECT_EQ(adversary->num_nodes(), 6u);
  BroadcastRoundView view;
  view.round = 1;
  EXPECT_EQ(adversary->broadcast_round(view).num_edges(), 5u);  // path
  view.round = 2;
  EXPECT_EQ(adversary->broadcast_round(view).num_edges(), 6u);  // cycle
  view.round = 3;
  EXPECT_EQ(adversary->broadcast_round(view).num_edges(), 6u);  // last repeats
}

class FileBackedFamilies : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "registry_test_trace_" + std::to_string(::getpid()) +
            ".dgt";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    BinaryTraceWriter writer(out, /*n=*/16, /*seed=*/3, "test");
    ChurnConfig cc;
    cc.n = 16;
    cc.target_edges = 32;
    cc.churn_per_round = 2;
    cc.seed = 3;
    ChurnAdversary source(cc);
    record_schedule(source, /*rounds=*/64, writer);
    writer.finish();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FileBackedFamilies, TraceAndScriptedReplayTheSameSchedule) {
  const auto k = static_cast<std::uint32_t>(8);
  const std::unique_ptr<Adversary> trace =
      build_adversary(AdversarySpec::parse("trace:file=" + path_), 16, 1);
  const std::unique_ptr<Adversary> scripted =
      build_adversary(AdversarySpec::parse("scripted:file=" + path_), 16, 1);
  EXPECT_EQ(payload_of(*trace, 16, k), payload_of(*scripted, 16, k));
}

TEST_F(FileBackedFamilies, MismatchedContextNodeCountIsASpecError) {
  EXPECT_THROW(
      (void)build_adversary(AdversarySpec::parse("trace:file=" + path_), 17, 1),
      AdversarySpecError);
}

TEST_F(FileBackedFamilies, SmoothedAdversaryMatchesSmoothTraceOutput) {
  // Registry-built live smoothing must realize the exact graphs smooth_trace
  // writes for the same base + seed.
  SmoothedTraceConfig cfg;
  cfg.flips_per_round = 4;
  cfg.seed = 11;
  std::stringstream smoothed(std::ios::in | std::ios::out | std::ios::binary);
  {
    const std::unique_ptr<TraceSource> base = open_trace_source(path_);
    BinaryTraceWriter writer(smoothed, 16, cfg.seed, "smoothed");
    smooth_trace(*base, cfg, writer);
    writer.finish();
  }
  std::stringstream live(std::ios::in | std::ios::out | std::ios::binary);
  {
    const std::unique_ptr<Adversary> adversary = build_adversary(
        AdversarySpec::parse("smoothed:base=" + path_ + ",flips=4,seed=11"), 16,
        1);
    auto* oblivious = dynamic_cast<ObliviousAdversary*>(adversary.get());
    ASSERT_NE(oblivious, nullptr);
    BinaryTraceWriter writer(live, 16, cfg.seed, "smoothed");
    record_schedule(*oblivious, /*rounds=*/64, writer);
    writer.finish();
  }
  smoothed.seekg(0);
  live.seekg(0);
  EXPECT_EQ(BinaryTraceReader(smoothed).header().checksum,
            BinaryTraceReader(live).header().checksum);
}

TEST(AdversaryRegistryDescribe, FlagsContextDependentFamilies) {
  // The lb family builds inside a run (it needs k + initial knowledge) but
  // cannot be replayed from its spec alone; describe() must surface that
  // caveat so `dyngossip adversaries` prints it instead of leaving it
  // folkloric.  Spec-replayable families carry no caveat.
  const AdversaryRegistry& registry = AdversaryRegistry::global();
  ASSERT_NE(registry.find("lb"), nullptr);
  EXPECT_TRUE(registry.find("lb")->needs_run_context);
  EXPECT_NE(registry.describe("lb").find("not spec-replayable"),
            std::string::npos);
  EXPECT_NE(registry.describe("lb").find("trace:file="), std::string::npos);
  EXPECT_FALSE(registry.find("churn")->needs_run_context);
  EXPECT_EQ(registry.describe("churn").find("not spec-replayable"),
            std::string::npos);
  EXPECT_EQ(registry.describe("no_such_family"), "");
}

}  // namespace
}  // namespace dyngossip
