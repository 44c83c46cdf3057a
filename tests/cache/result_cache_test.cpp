// Result-cache contract: store/lookup round trips, corruption tolerance
// (truncated or bit-flipped entries MISS and `cache verify` names them),
// schema-generation isolation, the kTimeout/kStalled write-back bypass, and
// the memoized sweep scheduler serving hits without re-running trials.
#include "cache/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "cache/memo_sweep.hpp"
#include "common/provenance.hpp"
#include "sim/runner/thread_pool.hpp"
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

TEST(ResultCache, TimeoutAndStalledAreNeverStoreEligible) {
  EXPECT_TRUE(cache_should_store(RunStatus::kCompleted));
  EXPECT_TRUE(cache_should_store(RunStatus::kRoundCap));
  EXPECT_TRUE(cache_should_store(RunStatus::kAllDown));
  // Host-dependent outcomes: a faster machine would not have timed out.
  EXPECT_FALSE(cache_should_store(RunStatus::kTimeout));
  EXPECT_FALSE(cache_should_store(RunStatus::kStalled));
}

TEST(ResultCache, MemoizedSweepNeverCachesTimeoutOrStalledRows) {
  ResultCache cache(fresh_cache_dir("timeout_bypass"));
  ThreadPool pool(2);
  std::atomic<int> runs{0};  // incremented by the pool's two workers
  const auto sweep_once = [&](RunStatus status) {
    std::vector<KeyedTrial> trials(1);
    trials[0].key = key_with_seed(status == RunStatus::kTimeout ? 10 : 11);
    trials[0].cacheable = true;
    trials[0].run = [&runs, status, n = trials[0].key.n](ThreadPool*) {
      ++runs;
      return sample_row(n, status);
    };
    return memoized_sweep(trials, &cache, pool);
  };

  for (int round = 0; round < 2; ++round) {
    const std::vector<MemoOutcome> t = sweep_once(RunStatus::kTimeout);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_FALSE(t[0].from_cache);
    const std::vector<MemoOutcome> s = sweep_once(RunStatus::kStalled);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_FALSE(s[0].from_cache);
  }
  // Both statuses re-ran on the second sweep: nothing was written back.
  EXPECT_EQ(runs.load(), 4);
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_EQ(cache.info().entries, 0u);
}

TEST(ResultCache, MemoizedSweepServesHitsWithoutRerunning) {
  ResultCache cache(fresh_cache_dir("memo"));
  ThreadPool pool(2);
  std::atomic<int> runs{0};  // incremented by the pool's two workers
  const auto make_trials = [&] {
    std::vector<KeyedTrial> trials(3);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      trials[i].key = key_with_seed(20 + i);
      trials[i].cacheable = true;
      trials[i].run = [&runs, n = trials[i].key.n](ThreadPool*) {
        ++runs;
        return sample_row(n);
      };
    }
    return trials;
  };

  const std::vector<MemoOutcome> cold = memoized_sweep(make_trials(), &cache, pool);
  ASSERT_EQ(cold.size(), 3u);
  EXPECT_EQ(runs.load(), 3);
  for (const MemoOutcome& o : cold) EXPECT_FALSE(o.from_cache);

  const std::vector<MemoOutcome> warm = memoized_sweep(make_trials(), &cache, pool);
  ASSERT_EQ(warm.size(), 3u);
  EXPECT_EQ(runs.load(), 3) << "warm sweep must not re-run any trial";
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].row.checksum, cold[i].row.checksum);
    EXPECT_EQ(warm[i].row.metrics.tc, cold[i].row.metrics.tc);
  }

  // Non-cacheable trials bypass the cache entirely, even when present.
  std::vector<KeyedTrial> bypass = make_trials();
  for (KeyedTrial& t : bypass) t.cacheable = false;
  const std::vector<MemoOutcome> raw = memoized_sweep(bypass, &cache, pool);
  EXPECT_EQ(runs.load(), 6);
  for (const MemoOutcome& o : raw) EXPECT_FALSE(o.from_cache);
}

TEST(ResultCache, MemoizedSweepHandsOnlyALoneTrialThePool) {
  // jobs × pool size: a lone trial runs on the calling thread with the pool
  // handed to its engines; zero or several trials fan out across the pool
  // and every one of them gets a null engine pool.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    for (const std::size_t jobs : {0u, 1u, 2u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " jobs=" + std::to_string(jobs));
      std::vector<ThreadPool*> seen(jobs, nullptr);
      std::vector<KeyedTrial> trials(jobs);
      for (std::size_t i = 0; i < jobs; ++i) {
        trials[i].key = make_run_key("flooding:", "static:", "", 8, 1, 1, 0, i);
        trials[i].run = [&seen, i](ThreadPool* engine_pool) {
          seen[i] = engine_pool;
          return CachedResult{};
        };
      }
      EXPECT_EQ(memoized_sweep(trials, nullptr, pool).size(), jobs);
      for (ThreadPool* p : seen) EXPECT_EQ(p, jobs == 1 ? &pool : nullptr);
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
    trials[0].run = [](ThreadPool* engine_pool) {
      const std::unique_ptr<Adversary> adversary =
          build_adversary(AdversarySpec::parse("churn:rate=0.1"), kN, 7);
      AlgoBuildContext ctx;
      ctx.n = kN;
      ctx.k = 4;
      ctx.sources = 1;
      ctx.seed = 7;
      ctx.pool = engine_pool;
      const RunResult res =
          run_algo(AlgoSpec::parse("random_flooding:"), ctx, *adversary);
      return make_cached_result(kN, ctx.k_realized, res);
    };
    const std::vector<MemoOutcome> out = memoized_sweep(trials, nullptr, pool);
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
