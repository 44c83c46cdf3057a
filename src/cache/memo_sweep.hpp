// Memoized sweep scheduler: the bridge between the scenario tables and the
// content-addressed result cache.
//
// A sweep is a list of keyed trials.  The scheduler consults the cache for
// every cacheable key first, schedules ONLY the misses across the thread
// pool (reusing the shard_schedule policy: a lone miss runs on the caller
// thread with the pool handed to its engines, more fan out), writes
// store-eligible results back, and returns outcomes in input order — so a
// warm re-run of a sweep skips straight to aggregation.  With no cache
// attached (or nothing cacheable) the schedule is exactly the cold one; by
// the purity invariant the outcomes are bit-identical either way, which is
// what the CI warm-vs-cold byte-identity gate checks end to end.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "sim/runner/thread_pool.hpp"

namespace dyngossip {

/// One schedulable trial: its canonical identity, whether the cache may
/// serve/store it, and the closure that computes it cold.  `run` receives
/// the engine-sharding pool (null when the trial itself runs on a pool
/// thread) and must be a pure function of the key — the invariant the rest
/// of the repo's bit-identity gates already enforce.
struct KeyedTrial {
  RunKey key;
  bool cacheable = false;
  std::function<CachedResult(ThreadPool* engine_pool)> run;
};

/// One sweep outcome: the row plus where it came from.
struct MemoOutcome {
  CachedResult row;
  bool from_cache = false;
};

/// Runs the sweep (see file comment).  `cache` may be null: every trial
/// runs cold.  Results are returned in input order and are bit-identical
/// to a cache-free run.
[[nodiscard]] std::vector<MemoOutcome> memoized_sweep(
    const std::vector<KeyedTrial>& trials, ResultCache* cache,
    ThreadPool& pool);

/// Cacheability policy for the adversary axis: file-backed families
/// (trace, scripted, smoothed) key on a file *name* whose content the
/// RunKey cannot pin, and lb adapts to run-side knowledge — none of them
/// may be served from or stored to the cache.
[[nodiscard]] bool cacheable_adversary_family(const std::string& family) noexcept;

/// Convenience RunKey builder (schema defaults to this binary's).
[[nodiscard]] RunKey make_run_key(std::string algo, std::string adversary,
                                  std::string fault, std::size_t n,
                                  std::uint32_t k, std::size_t sources,
                                  Round cap, std::uint64_t seed);

}  // namespace dyngossip
