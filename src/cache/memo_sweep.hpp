// Keyed trials and the memoized sweep scheduler: the one executor between
// the scenario tables and the content-addressed result cache.
//
// A keyed trial is a RunKey plus the probe series label its row registers
// under.  The key is the whole trial — run_keyed builds the adversary, the
// fault plan and the algorithm's build context from it alone — so a cached
// row and the run that computed it can never disagree, and whether a row may
// be cached is a property of the key too (cacheable_adversary_family on its
// adversary family).
//
// memoized_sweep consults the cache for every cacheable key first, schedules
// ONLY the misses across the thread pool (a lone miss runs on the caller
// thread with the pool handed to its engines, more fan out), hands the
// cacheable results to ResultCache::store (which refuses host-dependent
// timeouts), and returns outcomes in input order — so a warm re-run of a
// sweep skips straight to aggregation.  It also owns the observer plane: one
// probe per trial, the timeline, the per-trial timeout, and series
// registration in input order.  Attached observers force cold runs so the
// series cover every trial.  By the purity invariant the outcomes are
// bit-identical with or without a cache, which is what the CI warm-vs-cold
// byte-identity gate checks end to end.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "sim/run_options.hpp"
#include "sim/runner/scenario.hpp"

namespace dyngossip {

/// Runs the trial `key` names through run_algo: the adversary from
/// key.adversary (seeded with key.seed unless the spec pins seed=), a
/// FaultPlan from key.fault seeded the same way, and the build context from
/// the key's shape.  An empty key.fault runs with no FaultPlan object at all
/// (the control fault_sweep compares inactive plans against).  `opts`
/// carries the pool, observers and timeout; its `faults` is ignored.
[[nodiscard]] CachedResult run_keyed(const RunKey& key, const RunOptions& opts);

/// One schedulable trial: its canonical identity, its probe series label,
/// and the closure that computes it cold.
struct KeyedTrial {
  RunKey key;
  /// Probe series label, registered in input order when a sink is attached;
  /// empty registers no series (and attaches no probe).
  std::string series;
  /// Computes the row from the executor's options; empty runs
  /// run_keyed(key, opts).  Tests substitute fakes here.  A closure must be
  /// a pure function of the key — the invariant the rest of the repo's
  /// bit-identity gates already enforce.
  std::function<CachedResult(const RunOptions&)> run;
};

/// One sweep outcome: the row plus where it came from.
struct MemoOutcome {
  CachedResult row;
  bool from_cache = false;
};

/// Runs the sweep (see file comment) on ctx.pool(), with ctx.cache(),
/// ctx.probe_sink(), ctx.timeline() and ctx.trial_timeout().  Results are
/// returned in input order and are bit-identical to a cache-free run.
[[nodiscard]] std::vector<MemoOutcome> memoized_sweep(
    const std::vector<KeyedTrial>& trials, const ScenarioContext& ctx);

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
