// Scenario-level tests of the --adversary/--trace/--algo axes: an
// overridden scenario reproduces a recording run's payload checksum
// bit-for-bit, synthetic adversary overrides swap the schedule family
// without touching the scenario's shape, and an --algo override runs a
// different registered algorithm whose payload is bit-identical to the
// hand-built run.  multi_source's default grid runs as keyed trials: one
// probe series per trial, and a warm cache serves every row.
#include "scenarios/run_axes.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/registry.hpp"
#include "cache/result_cache.hpp"
#include "core/flooding.hpp"
#include "engine/broadcast_engine.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/runner/emit.hpp"
#include "sim/runner/scenario_cli.hpp"
#include "sim/runner/scenario_registry.hpp"
#include "telemetry/round_probe.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_adversary.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {
namespace {

ScenarioResult run_scenario(const std::string& name, const std::string& spec,
                            std::size_t trials = 0,
                            const std::string& algo = "") {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  const Scenario* scenario = registry.find(name);
  EXPECT_NE(scenario, nullptr);
  ThreadPool pool(2);
  ScenarioContext ctx(pool, trials, /*quick=*/true);
  ctx.set_adversary_spec(spec);
  ctx.set_algo_spec(algo);
  return scenario->run(ctx);
}

class RecordedTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "axis_test_recorded_" + std::to_string(::getpid()) +
            ".dgt";
    // Record exactly the way `dyngossip trace record` does: run the shared
    // registry dispatch against a live churn adversary, teeing the
    // schedule, with the run flags embedded in the metadata.
    spec_ = AlgoSpec{"single_source", {}};
    ctx_.n = 32;
    ctx_.k = 64;
    ctx_.sources = 4;
    ctx_.cap = 0;
    const std::string metadata =
        "algo=single_source n=32 k=64 sources=4 adversary=churn seed=7 cap=0";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    BinaryTraceWriter writer(out, 32, /*seed=*/7, metadata);
    const std::unique_ptr<Adversary> live =
        build_adversary(AdversarySpec::parse("churn:sigma=3"), ctx_.n, 7);
    TraceRecorder recorder(*live, writer);
    AlgoBuildContext run_ctx = ctx_;
    const RunResult recorded = run_algo(spec_, run_ctx, recorder);
    writer.finish();
    recorded_checksum_ =
        checksum_hex(run_payload_checksum(ctx_.n, run_ctx.k_realized, recorded));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  AlgoSpec spec_;
  AlgoBuildContext ctx_;
  std::string recorded_checksum_;
};

TEST_F(RecordedTrace, SingleSourceScenarioReproducesTheRecordingChecksum) {
  const ScenarioResult result =
      run_scenario("single_source", "trace:file=" + path_);
  ASSERT_EQ(result.tables.size(), 1u);
  const ScenarioTable& table = result.tables[0];
  ASSERT_EQ(table.rows.size(), 1u);  // n pinned by the trace header
  const std::vector<std::string>& row = table.rows[0];
  EXPECT_EQ(row[2], "32");               // n from the trace
  EXPECT_EQ(row[3], "64");               // k from the metadata
  EXPECT_EQ(row.back(), recorded_checksum_);
}

TEST_F(RecordedTrace, ScriptedOverrideReplaysTheSameScheduleAsTrace) {
  // scripted: materializes the whole file as a graph script; trace: streams
  // it.  Same schedule, different machinery — the run payloads must agree
  // with each other and with the recording.
  const ScenarioResult t = run_scenario("single_source", "trace:file=" + path_);
  const ScenarioResult s =
      run_scenario("single_source", "scripted:file=" + path_);
  ASSERT_EQ(t.tables[0].rows.size(), 1u);
  ASSERT_EQ(s.tables[0].rows.size(), 1u);
  EXPECT_EQ(s.tables[0].rows[0].back(), recorded_checksum_);
  EXPECT_EQ(t.tables[0].rows[0].back(), s.tables[0].rows[0].back());
}

TEST_F(RecordedTrace, TraceOverrideIsDeterministicAcrossRuns) {
  const ScenarioResult a = run_scenario("single_source", "trace:file=" + path_);
  const ScenarioResult b = run_scenario("single_source", "trace:file=" + path_);
  EXPECT_TRUE(a == b);
}

TEST_F(RecordedTrace, LeaderElectionPinsItsGridToTheTraceNodeCount) {
  const ScenarioResult result =
      run_scenario("leader_election", "trace:file=" + path_, /*trials=*/1);
  ASSERT_EQ(result.tables.size(), 1u);
  ASSERT_EQ(result.tables[0].rows.size(), 1u);  // one n, one (override) case
  EXPECT_EQ(result.tables[0].rows[0][0], "32");
  EXPECT_EQ(result.tables[0].rows[0][1], "trace:file=" + path_);
}

TEST_F(RecordedTrace, Table1PinsItsGridToTheTraceNodeCount) {
  // PR-5 satellite: table1 now honours the adversary axis; a trace
  // override collapses the size sweep to the recording's node count.
  const ScenarioResult result =
      run_scenario("table1", "trace:file=" + path_, /*trials=*/1);
  ASSERT_EQ(result.tables.size(), 1u);
  ASSERT_EQ(result.tables[0].rows.size(), 4u);  // one n x four regimes
  for (const auto& row : result.tables[0].rows) EXPECT_EQ(row[0], "32");
}

TEST_F(RecordedTrace, CrossAlgorithmReplayRunsFloodingOverTheRecording) {
  // The schedule was recorded under single_source; --algo=flooding: replays
  // the same rounds under the local-broadcast baseline.  The checksum
  // legitimately differs from the recording's, but the run is pinned to the
  // recording's shape and the note flags the cross-algorithm replay.
  const ScenarioResult result = run_scenario(
      "single_source", "trace:file=" + path_, /*trials=*/0, "flooding:");
  ASSERT_EQ(result.tables.size(), 1u);
  const ScenarioTable& table = result.tables[0];
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "flooding");  // algo column (canonical spec)
  EXPECT_NE(table.rows[0].back(), recorded_checksum_);
  EXPECT_NE(table.note.find("recorded under 'single_source'"),
            std::string::npos);
}

TEST_F(RecordedTrace, StaticOnlyAlgorithmRejectsADynamicRecording) {
  // The fixture's recording ran under churn; the shared requires_static
  // policy reads that from the metadata and fails cleanly instead of
  // letting spanning_tree trip its DG_CHECK mid-run.
  EXPECT_THROW((void)run_scenario("single_source", "trace:file=" + path_,
                                  /*trials=*/0, "spanning_tree:"),
               AlgoSpecError);
}

TEST(AdversaryAxis, SyntheticOverrideRunsTheRequestedFamily) {
  const ScenarioResult result =
      run_scenario("single_source", "sigma:interval=4,turnover=0.25");
  ASSERT_EQ(result.tables.size(), 1u);
  const ScenarioTable& table = result.tables[0];
  ASSERT_EQ(table.rows.size(), 2u);  // quick grid: n in {24, 48}
  for (const auto& row : table.rows) {
    EXPECT_EQ(row[0], "sigma:interval=4,turnover=0.25");
    EXPECT_EQ(row[5], "yes");  // completed
  }
}

TEST(AdversaryAxis, ResolveRejectsUnknownSpecs) {
  ThreadPool pool(1);
  ScenarioContext ctx(pool, 0, /*quick=*/true);
  ctx.set_adversary_spec("bogus:x=1");
  EXPECT_THROW((void)RunAxes::resolve(ctx), AdversarySpecError);
  ctx.set_adversary_spec("churn:rte=1");
  EXPECT_THROW((void)RunAxes::resolve(ctx), AdversarySpecError);
  ctx.set_adversary_spec("");
  EXPECT_FALSE(RunAxes::resolve(ctx).overridden());
}

TEST(AdversaryAxis, BuildFallsBackToTheDefaultSpecWhenNotOverridden) {
  ThreadPool pool(1);
  const ScenarioContext ctx(pool, 0, /*quick=*/true);
  const RunAxes axes = RunAxes::resolve(ctx);
  AdversarySpec def{"static", {}};
  const std::unique_ptr<Adversary> adversary = axes.build(def, 8, 1);
  EXPECT_EQ(adversary->num_nodes(), 8u);
}

// ---- the --algo axis -----------------------------------------------------

TEST(AlgoAxis, ResolveRejectsUnknownAlgoSpecs) {
  ThreadPool pool(1);
  ScenarioContext ctx(pool, 0, /*quick=*/true);
  ctx.set_algo_spec("bogus_algo");
  EXPECT_THROW((void)RunAxes::resolve(ctx), AlgoSpecError);
  ctx.set_algo_spec("flooding:zorp=1");
  EXPECT_THROW((void)RunAxes::resolve(ctx), AlgoSpecError);
  ctx.set_algo_spec("flooding:");
  EXPECT_TRUE(RunAxes::resolve(ctx).algo_overridden());
  EXPECT_FALSE(RunAxes::resolve(ctx).adversary_overridden());
}

TEST(AlgoAxis, SingleSourceWithFloodingMatchesTheHandBuiltFloodingRun) {
  // `run single_source --algo=flooding:` must produce, row for row, the
  // payload checksum of a hand-built phase-flooding run over the same
  // (default churn) schedule, same trial seed, same single-source task —
  // i.e. the registry dispatch adds nothing to the run itself.
  const ScenarioResult result =
      run_scenario("single_source", "", /*trials=*/0, "flooding:");
  ASSERT_EQ(result.tables.size(), 1u);
  const ScenarioTable& table = result.tables[0];
  ASSERT_EQ(table.rows.size(), 2u);  // quick grid: n in {24, 48}
  for (const auto& row : table.rows) {
    const std::size_t n = std::stoul(row[2]);
    const auto k = static_cast<std::uint32_t>(2 * n);
    // The scenario's quick-grid row shape and seed derivation.
    const std::uint64_t seed = 9'000 + 37 * n + 0;
    const Round cap = static_cast<Round>(40ull * n * k);
    // The scenario's default churn schedule for this row.
    AdversarySpec churn{"churn", {}};
    churn.set("edges", static_cast<std::uint64_t>(3 * n))
        .set("churn", static_cast<std::uint64_t>(n / 8));
    const std::unique_ptr<Adversary> adversary = build_adversary(churn, n, seed);
    // The flooding family's canonical single-source task: all k tokens at
    // node 0.
    const std::vector<KnowledgeSet> init =
        TokenSpace::single_source(0, k).initial_knowledge(n);
    BroadcastEngine engine(PhaseFloodingNode::make_all(n, k, init), *adversary, init, k);
    const RunResult hand = to_run_result(engine.run(cap));
    EXPECT_EQ(row[0], churn.to_string());
    EXPECT_EQ(row[1], "flooding");
    EXPECT_EQ(row.back(), checksum_hex(run_payload_checksum(n, k, hand)));
  }
}

TEST(AlgoAxis, SigmaStableChurnCompletesUnderFloodingOverride) {
  // The acceptance row: any algorithm on any schedule.
  const ScenarioResult result = run_scenario(
      "sigma_stable_churn", "sigma:interval=16,turnover=0.03", 0, "flooding:");
  ASSERT_EQ(result.tables.size(), 1u);
  ASSERT_FALSE(result.tables[0].rows.empty());
  for (const auto& row : result.tables[0].rows) {
    EXPECT_EQ(row[1], "flooding");
    EXPECT_EQ(row[5], "yes");  // completed
    EXPECT_EQ(row.back().size(), 16u);  // checksum column is a 64-bit hex
  }
}

TEST(AlgoAxis, StaticOnlyAlgorithmRejectsDynamicSchedules) {
  // spanning_tree asserts an unchanging neighborhood; over the scenario's
  // default churn schedule (or an explicit dynamic override) the axis must
  // fail with a clean spec error instead of tripping the protocol's
  // DG_CHECK inside a pool worker.  A static override passes.
  EXPECT_THROW((void)run_scenario("single_source", "", 0, "spanning_tree:"),
               AlgoSpecError);
  EXPECT_THROW(
      (void)run_scenario("single_source", "churn:", 0, "spanning_tree:"),
      AlgoSpecError);
  const ScenarioResult ok =
      run_scenario("single_source", "static:", 0, "spanning_tree:");
  ASSERT_FALSE(ok.tables[0].rows.empty());
  for (const auto& row : ok.tables[0].rows) EXPECT_EQ(row[5], "yes");
}

/// Runs `dyngossip run ...` in-process; returns (exit code, stderr).
std::pair<int, std::string> run_cli(std::vector<std::string> words) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  words.insert(words.begin(), {"dyngossip", "run"});
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code =
      dyngossip_main(registry, static_cast<int>(argv.size()), argv.data());
  (void)::testing::internal::GetCapturedStdout();
  return {code, ::testing::internal::GetCapturedStderr()};
}

TEST(AlgoAxis, SpanningTreeRejectsAnActiveFaultPlan) {
  // The static pipeline's invariants assume every payload arrives and no
  // node crashes: an active --fault plan is a usage error (exit 2), not an
  // abort inside a pool worker.  An inactive spec runs unchanged.
  const std::vector<std::string> base = {
      "single_source", "--quick", "--threads=1", "--algo=spanning_tree:",
      "--adversary=static:graph=gnp,p=0.3"};
  for (const char* fault : {"--fault=crash=0.02,recover=0.3",
                            "--fault=drop=0.1,dup=0.05"}) {
    std::vector<std::string> words = base;
    words.emplace_back(fault);
    const auto [code, err] = run_cli(words);
    EXPECT_EQ(code, 2) << fault << ": " << err;
    EXPECT_NE(err.find("spanning_tree"), std::string::npos) << err;
    EXPECT_NE(err.find("--fault"), std::string::npos) << err;
  }
  std::vector<std::string> inactive = base;
  inactive.emplace_back("--fault=drop=0");
  EXPECT_EQ(run_cli(inactive).first, 0);

  // Same rows as the fault-free run.
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  const auto rows = [&](const std::string& fault) {
    ThreadPool pool(1);
    ScenarioContext ctx(pool, 0, /*quick=*/true);
    ctx.set_adversary_spec("static:graph=gnp,p=0.3");
    ctx.set_algo_spec("spanning_tree:");
    ctx.set_fault_spec(fault);
    return registry.find("single_source")->run(ctx).tables.at(0).rows;
  };
  EXPECT_EQ(rows("drop=0"), rows(""));
}

TEST(ObserverAxes, ScenariosThatWouldIgnoreCacheOrProbeRejectThem) {
  // upper_bounds, lb_broadcast, oblivious_funnel and ablations run their
  // trials outside memoized_sweep: --cache and --probe are usage errors
  // there (exit 2, no cache directory created), not silently ignored.
  const std::string dir = ::testing::TempDir() + "dg_rejected_cache_" +
                          std::to_string(::getpid());
  const std::string series = ::testing::TempDir() + "dg_rejected_probe_" +
                             std::to_string(::getpid()) + ".jsonl";
  std::filesystem::remove_all(dir);
  for (const char* scenario :
       {"upper_bounds", "lb_broadcast", "oblivious_funnel", "ablations"}) {
    const auto [cache_code, cache_err] =
        run_cli({scenario, "--quick", "--cache=" + dir});
    EXPECT_EQ(cache_code, 2) << scenario;
    EXPECT_NE(cache_err.find("--cache"), std::string::npos) << cache_err;
    const auto [probe_code, probe_err] = run_cli(
        {scenario, "--quick", "--probe=round_series:out=" + series});
    EXPECT_EQ(probe_code, 2) << scenario;
    EXPECT_NE(probe_err.find("--probe"), std::string::npos) << probe_err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_FALSE(std::filesystem::exists(series));

  // table1 keeps --probe (its trials register series) but not --cache;
  // keyed scenarios keep both; --timeline applies everywhere.
  EXPECT_EQ(run_cli({"table1", "--quick", "--cache=" + dir}).first, 2);
  EXPECT_EQ(run_cli({"table1", "--quick", "--trials=1", "--threads=1",
                     "--probe=round_series:out=" + series})
                .first,
            0);
  EXPECT_TRUE(std::filesystem::exists(series));
  EXPECT_EQ(run_cli({"static_baseline", "--quick", "--threads=1",
                     "--cache=" + dir, "--probe=round_series:out=" + series})
                .first,
            0);
  EXPECT_EQ(run_cli({"lb_broadcast", "--quick", "--threads=1",
                     "--timeline=" + series})
                .first,
            0);
  std::filesystem::remove_all(dir);
  std::filesystem::remove(series);
}

TEST(FaultAxis, OnlyAnActiveFaultSpecNamesItselfInTheTitle) {
  // An inactive --fault (drop=0) runs the fault-free trials, so its table —
  // title included — must equal the run without the flag; an active spec
  // appends " under <spec>" to the title.
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  const auto table = [&](const std::string& fault) {
    ThreadPool pool(1);
    ScenarioContext ctx(pool, 0, /*quick=*/true);
    ctx.set_adversary_spec("churn:sigma=3");
    ctx.set_fault_spec(fault);
    return registry.find("single_source")->run(ctx).tables.at(0);
  };
  const ScenarioTable plain = table("");
  EXPECT_TRUE(table("drop=0") == plain);
  EXPECT_EQ(plain.title.find(" under "), std::string::npos) << plain.title;
  EXPECT_EQ(table("drop=0.1").title, plain.title + " under fault:drop=0.1");
}

TEST(AlgoAxis, ExplicitDefaultAlgoIsDispatchNeutral) {
  // --algo=single_source (the scenario's own default) must not change a
  // single byte of the override table relative to an adversary-only run.
  const ScenarioResult with_algo = run_scenario(
      "single_source", "sigma:interval=4,turnover=0.25", 0, "single_source");
  const ScenarioResult without =
      run_scenario("single_source", "sigma:interval=4,turnover=0.25");
  EXPECT_TRUE(with_algo == without);
}

TEST(AlgoAxis, AlgoMatrixCrossesFamiliesOnASharedSchedule) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  const Scenario* scenario = registry.find("algo_matrix");
  ASSERT_NE(scenario, nullptr);
  EXPECT_TRUE(scenario->algo_axis);
  EXPECT_TRUE(scenario->adversary_axis);
  ThreadPool pool(2);
  ScenarioContext ctx(pool, /*trials=*/1, /*quick=*/true);
  const ScenarioResult result = scenario->run(ctx);
  ASSERT_EQ(result.tables.size(), 1u);
  const ScenarioTable& table = result.tables[0];
  // 9 families x 3 schedules, minus spanning_tree's two non-static pairs.
  EXPECT_EQ(table.rows.size(), 9u * 3u - 2u);
  for (const auto& row : table.rows) {
    EXPECT_EQ(row[4], "yes") << row[0] << " vs " << row[2]
                             << " did not complete";
  }
}

/// Runs `dyngossip run sync_vs_async --quick` with TMPDIR set to `tmpdir`;
/// returns (exit code, stderr).
// ---- multi_source as keyed trials ----------------------------------------

/// multi_source --quick on a 2-worker pool with an optional cache and sink.
ScenarioResult run_multi_source_quick(ResultCache* cache, ProbeSink* sink) {
  ScenarioRegistry registry;
  register_all_scenarios(registry);
  ThreadPool pool(2);
  ScenarioContext ctx(pool, 0, /*quick=*/true);
  ctx.set_cache(cache);
  ctx.set_probe_sink(sink);
  return registry.find("multi_source")->run(ctx);
}

std::string rendered(const ScenarioResult& result) {
  std::ostringstream os;
  print_scenario_tables(result, os);
  return os.str();
}

TEST(MultiSourceKeyed, ProbeSinkGetsOneSeriesPerTrialInInputOrder) {
  ProbeSink sink(ProbeSpec{});
  const ScenarioResult probed = run_multi_source_quick(nullptr, &sink);
  std::ostringstream jsonl;
  sink.write_to(jsonl);
  std::vector<std::string> totals;
  std::istringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"total\"") == std::string::npos) continue;
    const std::size_t at = line.find("\"series\":\"") + 10;
    totals.push_back(line.substr(at, line.find('"', at) - at));
  }
  // The message rows (s = 2, 8, 32), then the stable-churn rows
  // (n = 16, 32), two trials each.
  std::vector<std::string> expected;
  for (const char* row : {"s=2", "s=8", "s=32", "stable n=16", "stable n=32"}) {
    for (const char* trial : {" trial=0", " trial=1"}) {
      expected.push_back(std::string("multi_source ") + row + trial);
    }
  }
  EXPECT_EQ(totals, expected);
  // Observers never touch the payload.
  EXPECT_EQ(rendered(probed), rendered(run_multi_source_quick(nullptr, nullptr)));
}

TEST(MultiSourceKeyed, WarmCacheServesTheWholeGridWithTheSamePayload) {
  const std::string dir = ::testing::TempDir() + "dg_multi_source_cache_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ResultCache cold_cache(dir);
  const ScenarioResult cold = run_multi_source_quick(&cold_cache, nullptr);
  EXPECT_EQ(cold_cache.stats().hits, 0u);
  EXPECT_EQ(cold_cache.stats().misses, 10u);

  ResultCache warm_cache(dir);
  const ScenarioResult warm = run_multi_source_quick(&warm_cache, nullptr);
  std::filesystem::remove_all(dir);
  EXPECT_GT(warm_cache.stats().hits, 0u);
  EXPECT_EQ(warm_cache.stats().misses, 0u);
  EXPECT_EQ(rendered(warm), rendered(cold));
}

std::pair<int, std::string> run_sync_vs_async_with_tmpdir(const std::string& tmpdir) {
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", tmpdir.c_str(), 1);
  auto result = run_cli({"sync_vs_async", "--quick", "--threads=1"});
  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  return result;
}

TEST(SyncVsAsync, UnusableTmpdirIsAnActionableSpecError) {
  // The smoothing grid's ring base trace lives in the temp directory and
  // its path goes into a `smoothed:base=` spec, where ',' separates keys:
  // such a TMPDIR — or one that does not exist — must exit 2 naming TMPDIR.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("dg_tmp,comma_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto [code, err] = run_sync_vs_async_with_tmpdir(dir.string());
  std::filesystem::remove_all(dir);
  EXPECT_EQ(code, 2) << err;
  EXPECT_NE(err.find("TMPDIR"), std::string::npos) << err;
  EXPECT_NE(err.find("','"), std::string::npos) << err;

  const auto [missing_code, missing_err] =
      run_sync_vs_async_with_tmpdir(dir.string() + "_missing");
  EXPECT_EQ(missing_code, 2) << missing_err;
  EXPECT_NE(missing_err.find("TMPDIR"), std::string::npos) << missing_err;
}

}  // namespace
}  // namespace dyngossip
