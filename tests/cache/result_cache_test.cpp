// Result-cache contract: store/lookup round trips, corruption tolerance
// (truncated or bit-flipped entries MISS and `cache verify` names them),
// schema-generation isolation, the kTimeout write-back bypass, the
// memoized sweep scheduler serving hits without re-running trials and owning
// the observer plane, and run_keyed reproducing the hand-built trial.
#include "cache/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "common/provenance.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/thread_pool.hpp"
#include "telemetry/round_probe.hpp"
#include "telemetry/timeline.hpp"
#include "trace/run_payload.hpp"

namespace dyngossip {
namespace {

std::string fresh_cache_dir(const char* name) {
  const std::string dir =
      ::testing::TempDir() + "dg_cache_" + std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

RunKey key_with_seed(std::uint64_t seed) {
  return make_run_key("single_source", "churn:rate=0.5", "fault", 24, 6, 1,
                      480, seed);
}

/// A synthetic finished run whose checksum genuinely re-folds (the decode
/// path re-derives it from the stored fields, so a fabricated checksum
/// would read back as corrupt).
CachedResult sample_row(std::size_t n, RunStatus status = RunStatus::kCompleted) {
  RunResult run;
  run.metrics.unicast.token = 120;
  run.metrics.unicast.completeness = 48;
  run.metrics.unicast.request = 30;
  run.metrics.unicast.control = 2;
  run.metrics.tc = 900;
  run.metrics.deletions = 11;
  run.metrics.learnings = 144;
  run.metrics.duplicate_token_deliveries = 3;
  run.metrics.virtual_steps = 5;
  run.metrics.rounds = 37;
  run.rounds = 37;
  run.metrics.completed = status == RunStatus::kCompleted;
  run.completed = run.metrics.completed;
  run.metrics.status = status;
  run.metrics.coverage = run.metrics.completed ? 1.0 : 0.5;
  return make_cached_result(n, 6, run);
}

TEST(ResultCache, StoreThenLookupRoundTripsEveryField) {
  ResultCache cache(fresh_cache_dir("roundtrip"));
  const RunKey key = key_with_seed(1);
  const CachedResult row = sample_row(key.n);
  cache.store(key, row);

  const std::optional<CachedResult> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->k_realized, row.k_realized);
  EXPECT_EQ(hit->checksum, row.checksum);
  EXPECT_EQ(hit->metrics.unicast.token, row.metrics.unicast.token);
  EXPECT_EQ(hit->metrics.unicast.completeness,
            row.metrics.unicast.completeness);
  EXPECT_EQ(hit->metrics.unicast.request, row.metrics.unicast.request);
  EXPECT_EQ(hit->metrics.unicast.control, row.metrics.unicast.control);
  EXPECT_EQ(hit->metrics.broadcasts, row.metrics.broadcasts);
  EXPECT_EQ(hit->metrics.tc, row.metrics.tc);
  EXPECT_EQ(hit->metrics.deletions, row.metrics.deletions);
  EXPECT_EQ(hit->metrics.learnings, row.metrics.learnings);
  EXPECT_EQ(hit->metrics.duplicate_token_deliveries,
            row.metrics.duplicate_token_deliveries);
  EXPECT_EQ(hit->metrics.virtual_steps, row.metrics.virtual_steps);
  EXPECT_EQ(hit->metrics.rounds, row.metrics.rounds);
  EXPECT_EQ(hit->metrics.completed, row.metrics.completed);
  EXPECT_EQ(hit->metrics.status, row.metrics.status);
  EXPECT_DOUBLE_EQ(hit->metrics.coverage, row.metrics.coverage);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ResultCache, AbsentKeyMisses) {
  ResultCache cache(fresh_cache_dir("absent"));
  EXPECT_FALSE(cache.lookup(key_with_seed(99)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, TruncatedEntryMissesAndVerifyReportsIt) {
  ResultCache cache(fresh_cache_dir("truncated"));
  const RunKey key = key_with_seed(2);
  cache.store(key, sample_row(key.n));
  ASSERT_TRUE(cache.lookup(key).has_value());

  // Simulate a crash mid-write landing a half entry at the final path.
  const std::string path = cache.entry_path(key);
  const std::string body = [&] {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return all;
  }();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body.substr(0, body.size() / 2);
  }

  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheVerifyReport report = cache.verify();
  EXPECT_EQ(report.valid, 0u);
  ASSERT_EQ(report.corrupt.size(), 1u);
  EXPECT_NE(report.corrupt[0].find(path), std::string::npos);

  // gc removes the broken entry; a healthy store can then repopulate it.
  const CacheGcReport gc = cache.gc(/*all=*/false);
  EXPECT_EQ(gc.removed_corrupt, 1u);
  EXPECT_EQ(cache.verify().corrupt.size(), 0u);
  cache.store(key, sample_row(key.n));
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(ResultCache, BitFlippedFieldBreaksTheChecksumFoldAndMisses) {
  ResultCache cache(fresh_cache_dir("bitflip"));
  const RunKey key = key_with_seed(3);
  cache.store(key, sample_row(key.n));

  const std::string path = cache.entry_path(key);
  std::string body = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }();
  // Inflate the token count; the stored checksum no longer re-folds.
  const std::size_t at = body.find("\"token\":120");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 11, "\"token\":121");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
  }

  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheVerifyReport report = cache.verify();
  ASSERT_EQ(report.corrupt.size(), 1u);
  EXPECT_NE(report.corrupt[0].find("does not re-fold"), std::string::npos);
}

TEST(ResultCache, ForeignSchemaEntryMissesAndVerifyCountsItForeign) {
  ResultCache cache(fresh_cache_dir("foreign"));
  RunKey foreign_key = key_with_seed(4);
  foreign_key.schema = kCacheSchemaVersion + 1;
  cache.store(foreign_key, sample_row(foreign_key.n));

  // The foreign entry is well-formed but belongs to another cache
  // generation: lookup under its own key must refuse to return it.
  EXPECT_FALSE(cache.lookup(foreign_key).has_value());
  const CacheVerifyReport report = cache.verify();
  EXPECT_EQ(report.valid, 0u);
  EXPECT_EQ(report.foreign, 1u);
  EXPECT_TRUE(report.corrupt.empty());

  // The same axes under the current schema are a distinct entry entirely.
  EXPECT_FALSE(cache.lookup(key_with_seed(4)).has_value());
}

TEST(ResultCache, OnlyTimeoutIsNeverStoreEligible) {
  EXPECT_TRUE(cache_should_store(RunStatus::kCompleted));
  EXPECT_TRUE(cache_should_store(RunStatus::kRoundCap));
  EXPECT_TRUE(cache_should_store(RunStatus::kAllDown));
  // A stall is a count of quiet rounds: a pure function of the key.
  EXPECT_TRUE(cache_should_store(RunStatus::kStalled));
  // Host-dependent outcome: a faster machine would not have timed out.
  EXPECT_FALSE(cache_should_store(RunStatus::kTimeout));
}

/// The sweep's execution context: `pool`, plus the optional cache and
/// observers the executor reads from it.
ScenarioContext sweep_context(ThreadPool& pool, ResultCache* cache,
                              ProbeSink* sink = nullptr,
                              TimelineRecorder* timeline = nullptr) {
  ScenarioContext ctx(pool, 0, /*quick=*/true);
  ctx.set_cache(cache);
  ctx.set_probe_sink(sink);
  ctx.set_timeline(timeline);
  return ctx;
}

TEST(ResultCache, MemoizedSweepCachesStalledButNeverTimeoutRows) {
  ResultCache cache(fresh_cache_dir("timeout_bypass"));
  ThreadPool pool(2);
  std::atomic<int> runs{0};  // incremented by the pool's two workers
  const auto sweep_once = [&](RunStatus status) {
    std::vector<KeyedTrial> trials(1);
    trials[0].key = key_with_seed(status == RunStatus::kTimeout ? 10 : 11);
    trials[0].cacheable = true;
    trials[0].run = [&runs, status, n = trials[0].key.n](const RunOptions&) {
      ++runs;
      return sample_row(n, status);
    };
    return memoized_sweep(trials, sweep_context(pool, &cache));
  };

  for (int round = 0; round < 2; ++round) {
    const std::vector<MemoOutcome> t = sweep_once(RunStatus::kTimeout);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_FALSE(t[0].from_cache);
    const std::vector<MemoOutcome> s = sweep_once(RunStatus::kStalled);
    ASSERT_EQ(s.size(), 1u);
    // The stalled row was stored by the first sweep and served by the second.
    EXPECT_EQ(s[0].from_cache, round == 1);
    EXPECT_EQ(s[0].row.metrics.status, RunStatus::kStalled);
  }
  // The timeout trial re-ran on the second sweep; the stalled one did not.
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.info().entries, 1u);
  EXPECT_FALSE(cache.lookup(key_with_seed(10)).has_value());
}

/// Three cacheable fake trials counting their cold runs in `runs`.
std::vector<KeyedTrial> counted_trials(std::atomic<int>& runs) {
  std::vector<KeyedTrial> trials(3);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].key = key_with_seed(20 + i);
    trials[i].cacheable = true;
    trials[i].run = [&runs, n = trials[i].key.n](const RunOptions&) {
      ++runs;
      return sample_row(n);
    };
  }
  return trials;
}

TEST(ResultCache, MemoizedSweepServesHitsWithoutRerunning) {
  ResultCache cache(fresh_cache_dir("memo"));
  ThreadPool pool(2);
  std::atomic<int> runs{0};  // incremented by the pool's two workers
  const ScenarioContext ctx = sweep_context(pool, &cache);

  const std::vector<MemoOutcome> cold = memoized_sweep(counted_trials(runs), ctx);
  ASSERT_EQ(cold.size(), 3u);
  EXPECT_EQ(runs.load(), 3);
  for (const MemoOutcome& o : cold) EXPECT_FALSE(o.from_cache);

  const std::vector<MemoOutcome> warm = memoized_sweep(counted_trials(runs), ctx);
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(runs.load(), 3) << "warm sweep must not re-run any trial";
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].row.checksum, cold[i].row.checksum);
    EXPECT_EQ(warm[i].row.metrics.tc, cold[i].row.metrics.tc);
  }

  // Non-cacheable trials bypass the cache entirely, even when present.
  std::vector<KeyedTrial> bypass = counted_trials(runs);
  for (KeyedTrial& t : bypass) t.cacheable = false;
  const std::vector<MemoOutcome> raw = memoized_sweep(bypass, ctx);
  EXPECT_EQ(runs.load(), 6);
  for (const MemoOutcome& o : raw) EXPECT_FALSE(o.from_cache);
}

TEST(ResultCache, MemoizedSweepRunsColdWhileAnObserverIsAttached) {
  ResultCache cache(fresh_cache_dir("observed"));
  ThreadPool pool(2);
  std::atomic<int> runs{0};  // incremented by the pool's two workers
  (void)memoized_sweep(counted_trials(runs), sweep_context(pool, &cache));
  ASSERT_EQ(cache.info().entries, 3u);
  const CacheStats warmed = cache.stats();

  ProbeSink sink(ProbeSpec{});
  TimelineRecorder timeline;
  const std::vector<std::pair<ProbeSink*, TimelineRecorder*>> observers = {
      {&sink, nullptr}, {nullptr, &timeline}, {&sink, &timeline}};
  for (const auto& [with_sink, with_timeline] : observers) {
    const int before = runs.load();
    const std::vector<MemoOutcome> out = memoized_sweep(
        counted_trials(runs), sweep_context(pool, &cache, with_sink, with_timeline));
    EXPECT_EQ(runs.load(), before + 3) << "every trial must run cold";
    for (const MemoOutcome& o : out) EXPECT_FALSE(o.from_cache);
  }
  // Neither looked up nor stored while observed.
  EXPECT_EQ(cache.stats().hits, warmed.hits);
  EXPECT_EQ(cache.stats().misses, warmed.misses);
  EXPECT_EQ(cache.stats().stores, warmed.stores);
}

TEST(ResultCache, MemoizedSweepHandsOnlyALoneTrialThePool) {
  // jobs × pool size: a lone trial runs on the calling thread with the pool
  // handed to its engines; zero or several trials fan out across the pool
  // and every one of them gets a null engine pool.  Every trial gets the
  // context's timeout.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    ScenarioContext ctx = sweep_context(pool, nullptr);
    ctx.set_trial_timeout(7.5);
    for (const std::size_t jobs : {0u, 1u, 2u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " jobs=" + std::to_string(jobs));
      std::vector<RunOptions> seen(jobs);
      std::vector<KeyedTrial> trials(jobs);
      for (std::size_t i = 0; i < jobs; ++i) {
        trials[i].key = make_run_key("flooding:", "static:", "", 8, 1, 1, 0, i);
        trials[i].run = [&seen, i](const RunOptions& opts) {
          seen[i] = opts;
          return CachedResult{};
        };
      }
      EXPECT_EQ(memoized_sweep(trials, ctx).size(), jobs);
      for (const RunOptions& opts : seen) {
        EXPECT_EQ(opts.pool, jobs == 1 ? &pool : nullptr);
        EXPECT_EQ(opts.timeout_seconds, 7.5);
        EXPECT_EQ(opts.faults, nullptr);
        EXPECT_FALSE(opts.telemetry.active());
      }
    }
  }
}

TEST(ResultCache, MemoizedSweepLoneBroadcastTrialMatchesAcrossPools) {
  // One broadcast-family miss at n = 4096 (the broadcast engine's sharding
  // threshold): on a 4-worker pool its engine shards each round, on a
  // 1-worker pool it plans one shard.  The row must be the same.
  constexpr std::size_t kN = 4096;
  const auto sweep_on = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<KeyedTrial> trials(1);
    trials[0].key =
        make_run_key("random_flooding:", "churn:rate=0.1", "fault", kN, 4, 1, 0, 7);
    const std::vector<MemoOutcome> out =
        memoized_sweep(trials, sweep_context(pool, nullptr));
    EXPECT_EQ(out.size(), 1u);
    return out.at(0).row;
  };
  const CachedResult serial = sweep_on(1);
  const CachedResult sharded = sweep_on(4);
  EXPECT_TRUE(serial.metrics.completed);
  EXPECT_EQ(sharded.checksum, serial.checksum);
  EXPECT_EQ(sharded.k_realized, serial.k_realized);
  EXPECT_EQ(sharded.metrics.broadcasts, serial.metrics.broadcasts);
  EXPECT_EQ(sharded.metrics.rounds, serial.metrics.rounds);
  EXPECT_EQ(sharded.metrics.tc, serial.metrics.tc);
  EXPECT_EQ(sharded.metrics.learnings, serial.metrics.learnings);
}

/// Six small real trials over three families, two of them unlabelled.
std::vector<KeyedTrial> labelled_trials() {
  const char* const algos[] = {"single_source", "flooding", "async_push_pull"};
  std::vector<KeyedTrial> trials;
  for (const char* algo : algos) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      KeyedTrial trial;
      trial.key = make_run_key(algo, "churn:churn=3,edges=48", "fault", 16, 6, 1,
                               0, seed);
      if (std::string(algo) != "flooding") {
        trial.series = std::string(algo) + " seed=" + std::to_string(seed);
      }
      trials.push_back(std::move(trial));
    }
  }
  return trials;
}

/// The sink's JSONL bytes after one sweep of labelled_trials() on `workers`.
std::string series_bytes(std::size_t workers) {
  ThreadPool pool(workers);
  ProbeSink sink(ProbeSpec{});
  (void)memoized_sweep(labelled_trials(), sweep_context(pool, nullptr, &sink));
  std::ostringstream os;
  sink.write_to(os);
  return os.str();
}

TEST(ResultCache, MemoizedSweepRegistersLabelledSeriesInInputOrder) {
  const std::string jsonl = series_bytes(2);
  // One "total" row per labelled trial, in input order; unlabelled trials
  // register nothing.
  std::vector<std::string> totals;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"total\"") == std::string::npos) continue;
    const std::size_t at = line.find("\"series\":\"") + 10;
    totals.push_back(line.substr(at, line.find('"', at) - at));
  }
  const std::vector<std::string> expected = {
      "single_source seed=1", "single_source seed=2", "async_push_pull seed=1",
      "async_push_pull seed=2"};
  EXPECT_EQ(totals, expected);
  EXPECT_EQ(jsonl.find("flooding"), std::string::npos);
}

TEST(ResultCache, MemoizedSweepSeriesAreIdenticalAtAnyPoolSize) {
  const std::string one = series_bytes(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(series_bytes(2), one);
  EXPECT_EQ(series_bytes(8), one);
}

TEST(ResultCache, RunKeyedMatchesTheHandBuiltTrialItReplaces) {
  // Every --algo= family × {churn, static} × {no fault, drop+crash}: the
  // trial run_keyed builds from the key alone must equal the hand-built
  // run_algo trial, whose fault-free variant has no FaultPlan at all.
  constexpr std::size_t kN = 16;
  constexpr std::uint32_t kK = 8;
  constexpr Round kCap = 1500;
  constexpr std::uint64_t kSeed = 31;
  const std::vector<std::string> schedules = {"churn:churn=2,edges=40",
                                              "static:graph=gnp,p=0.3"};
  const std::vector<std::string> faults = {"", "drop=0.1,crash=0.01"};
  std::size_t cases = 0;
  for (const AlgoFamily* family : AlgoRegistry::global().list()) {
    for (const std::string& schedule : schedules) {
      for (const std::string& fault : faults) {
        // The static spanning-tree pipeline needs a static, fault-free run.
        const bool is_static = schedule.rfind("static:", 0) == 0;
        if (family->requires_static && (!is_static || !fault.empty())) continue;
        const std::string what = family->name + " over " + schedule +
                                 (fault.empty() ? "" : " under " + fault);
        const FaultSpec fspec = fault.empty() ? FaultSpec{} : FaultSpec::parse(fault);

        const std::unique_ptr<Adversary> adversary =
            build_adversary(AdversarySpec::parse(schedule), kN, kSeed);
        FaultPlan plan(fspec, kN, kSeed);
        AlgoBuildContext actx;
        actx.n = kN;
        actx.k = kK;
        actx.sources = 4;
        actx.cap = kCap;
        actx.seed = kSeed;
        if (!fault.empty()) actx.faults = &plan;
        const RunResult res =
            run_algo(AlgoSpec{family->name, {}}, actx, *adversary);
        const CachedResult hand = make_cached_result(kN, actx.k_realized, res);

        const CachedResult keyed = run_keyed(
            make_run_key(family->name, schedule, fspec.to_string(), kN, kK, 4,
                         kCap, kSeed),
            RunOptions{});
        EXPECT_EQ(keyed.checksum, hand.checksum) << what;
        EXPECT_EQ(keyed.k_realized, hand.k_realized) << what;
        const RunMetrics& x = keyed.metrics;
        const RunMetrics& y = hand.metrics;
        EXPECT_EQ(x.unicast.token, y.unicast.token) << what;
        EXPECT_EQ(x.unicast.completeness, y.unicast.completeness) << what;
        EXPECT_EQ(x.unicast.request, y.unicast.request) << what;
        EXPECT_EQ(x.unicast.control, y.unicast.control) << what;
        EXPECT_EQ(x.broadcasts, y.broadcasts) << what;
        EXPECT_EQ(x.tc, y.tc) << what;
        EXPECT_EQ(x.deletions, y.deletions) << what;
        EXPECT_EQ(x.learnings, y.learnings) << what;
        EXPECT_EQ(x.duplicate_token_deliveries, y.duplicate_token_deliveries)
            << what;
        EXPECT_EQ(x.virtual_steps, y.virtual_steps) << what;
        EXPECT_EQ(x.rounds, y.rounds) << what;
        EXPECT_EQ(x.completed, y.completed) << what;
        EXPECT_EQ(x.status, y.status) << what;
        EXPECT_EQ(x.coverage, y.coverage) << what;
        ++cases;
      }
    }
  }
  // 8 non-static families × 2 schedules × 2 fault specs, plus spanning_tree's
  // fault-free static case.
  EXPECT_EQ(cases, 8u * 2u * 2u + 1u);
}

TEST(ResultCache, RunKeyedWithAnEmptyFaultSpecMatchesAnInactivePlan) {
  // The fault_sweep control: an empty key.fault runs without a FaultPlan;
  // an inactive plan must not change a byte.
  const RunKey planned =
      make_run_key("flooding", "churn:churn=2,edges=40", "fault", 16, 8, 1, 0, 3);
  RunKey planless = planned;
  planless.fault.clear();
  EXPECT_EQ(run_keyed(planless, RunOptions{}).checksum,
            run_keyed(planned, RunOptions{}).checksum);
}

TEST(ResultCache, IndexAndInfoTrackTheObjectStore) {
  ResultCache cache(fresh_cache_dir("index"));
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cache.store(key_with_seed(40 + seed), sample_row(24));
  }
  EXPECT_FALSE(cache.info().index_present);
  cache.write_index();
  const CacheInfo info = cache.info();
  EXPECT_EQ(info.entries, 4u);
  EXPECT_TRUE(info.index_present);
  EXPECT_GT(info.bytes, 0u);

  // gc --all empties the store and the rewritten index reflects that.
  const CacheGcReport gc = cache.gc(/*all=*/true);
  EXPECT_EQ(gc.removed_entries, 4u);
  EXPECT_EQ(cache.info().entries, 0u);
  EXPECT_EQ(cache.verify().valid, 0u);
}

std::string read_index(const ResultCache& cache) {
  std::ifstream in(cache.dir() + "/index.jsonl", std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The index a handle with an empty memo writes for the same directory.
std::string fresh_index(const std::string& dir) {
  const ResultCache fresh(dir);
  fresh.write_index();
  return read_index(fresh);
}

TEST(ResultCache, IndexRewriteMatchesAFreshHandle) {
  const std::string dir = fresh_cache_dir("index_memo");
  ResultCache cache(dir);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    cache.store(key_with_seed(60 + seed), sample_row(24));
  }
  RunKey foreign = key_with_seed(70);
  foreign.schema = kCacheSchemaVersion + 1;
  cache.store(foreign, sample_row(24));
  // First rewrite: every line comes from a store's memo.
  cache.write_index();
  const std::string first = read_index(cache);
  EXPECT_EQ(first, fresh_index(dir));
  EXPECT_NE(first.find("\"entries\":7"), std::string::npos) << first;
  // Second rewrite: every line comes from the walk's memo.
  cache.store(key_with_seed(80), sample_row(24));
  cache.write_index();
  const std::string second = read_index(cache);
  EXPECT_EQ(second, fresh_index(dir));
}

TEST(ResultCache, IndexRewriteFollowsChangesMadeBehindTheHandle) {
  const std::string dir = fresh_cache_dir("index_changes");
  ResultCache cache(dir);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cache.store(key_with_seed(90 + seed), sample_row(24));
  }
  cache.write_index();
  const auto listed = [&](std::uint64_t seed) {
    return read_index(cache).find(key_with_seed(seed).canonical_text()) !=
           std::string::npos;
  };
  ASSERT_TRUE(listed(90) && listed(91) && listed(92) && listed(93));

  // Removed from disk, stored by another handle, truncated in place.
  std::filesystem::remove(cache.entry_path(key_with_seed(90)));
  {
    ResultCache other(dir);
    other.store(key_with_seed(94), sample_row(24));
  }
  const std::string truncated = cache.entry_path(key_with_seed(91));
  std::filesystem::resize_file(truncated,
                               std::filesystem::file_size(truncated) / 2);

  cache.write_index();
  EXPECT_FALSE(listed(90)) << "removed entry still indexed";
  EXPECT_FALSE(listed(91)) << "truncated entry still indexed";
  EXPECT_TRUE(listed(92));
  EXPECT_TRUE(listed(93));
  EXPECT_TRUE(listed(94)) << "another handle's entry not picked up";
  const std::string rewritten = read_index(cache);
  EXPECT_EQ(rewritten, fresh_index(dir));
  // The handle still refuses the truncated entry on lookup.
  EXPECT_FALSE(cache.lookup(key_with_seed(91)).has_value());
}

TEST(ResultCache, StoreIsIdempotentUnderTheSameKey) {
  ResultCache cache(fresh_cache_dir("idempotent"));
  const RunKey key = key_with_seed(5);
  cache.store(key, sample_row(key.n));
  cache.store(key, sample_row(key.n));  // second publish is a no-op
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.info().entries, 1u);
}

}  // namespace
}  // namespace dyngossip
