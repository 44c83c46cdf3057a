#include "cache/memo_sweep.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "adversary/registry.hpp"
#include "algo/registry.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_spec.hpp"
#include "sim/runner/parallel.hpp"
#include "telemetry/round_probe.hpp"

namespace dyngossip {

namespace {

/// Trial-level vs intra-round parallelism.  The ThreadPool is a leaf
/// executor: parallel_for submits tasks and blocks in wait_idle, so it may
/// only be driven from a non-pool thread.  A sweep therefore picks ONE axis:
/// either fan trials out across the pool (engines serial) or run its lone
/// trial on the caller thread and hand that trial's engines the pool.  Both
/// axes are deterministic — trials write preassigned slots, the broadcast
/// engine merges shards in node order — so the choice affects wall time
/// only, never results.  Rule: only a lone trial, which would otherwise
/// leave every other worker idle.  Two or more trials side by side beat
/// running them one after another with sharded engines on the measured runs
/// (docs/PERFORMANCE.md, *Serial vs sharded on 4 vCPUs*); the unicast engine
/// ignores the pool, and a 1-worker pool plans one shard.
[[nodiscard]] bool prefer_intra_round_sharding(std::size_t jobs) {
  return jobs == 1;
}

/// Whether the cache may serve and store `key`'s row: decided by the family
/// of its adversary spec (the text before ':').
[[nodiscard]] bool cacheable_key(const RunKey& key) {
  return cacheable_adversary_family(
      key.adversary.substr(0, key.adversary.find(':')));
}

}  // namespace

bool cacheable_adversary_family(const std::string& family) noexcept {
  return family != "trace" && family != "scripted" && family != "smoothed" &&
         family != "lb";
}

RunKey make_run_key(std::string algo, std::string adversary, std::string fault,
                    std::size_t n, std::uint32_t k, std::size_t sources,
                    Round cap, std::uint64_t seed) {
  RunKey key;
  // The engine axis is derived from the registered family (the part of the
  // algo spec before ':').  Unknown names — serve-side keys rebuilt from
  // stored text, tests with synthetic specs — fall back to "unicast", the
  // engine every pre-schema-2 entry implicitly had.
  const std::size_t colon = algo.find(':');
  const AlgoFamily* family = AlgoRegistry::global().find(
      colon == std::string::npos ? algo : algo.substr(0, colon));
  if (family != nullptr) key.engine = algo_engine_name(family->engine);
  key.algo = std::move(algo);
  key.adversary = std::move(adversary);
  key.fault = std::move(fault);
  key.n = n;
  key.k = k;
  key.sources = sources;
  key.cap = cap;
  key.seed = seed;
  return key;
}

CachedResult run_keyed(const RunKey& key, const RunOptions& opts) {
  const std::unique_ptr<Adversary> adversary =
      build_adversary(AdversarySpec::parse(key.adversary), key.n, key.seed);
  AlgoBuildContext actx;
  static_cast<RunOptions&>(actx) = opts;
  // Per-trial fault plan, seeded from the trial seed (a spec seed= pin wins
  // inside the plan) — decisions are position-keyed, so the outcome is
  // identical whichever parallelism axis runs this trial.
  std::optional<FaultPlan> plan;
  if (!key.fault.empty()) plan.emplace(FaultSpec::parse(key.fault), key.n, key.seed);
  actx.faults = plan ? &*plan : nullptr;
  actx.n = key.n;
  actx.k = key.k;
  actx.sources = key.sources;
  actx.cap = key.cap;
  actx.seed = key.seed;
  const RunResult res = run_algo(AlgoSpec::parse(key.algo), actx, *adversary);
  return make_cached_result(key.n, actx.k_realized, res);
}

std::vector<MemoOutcome> memoized_sweep(const std::vector<KeyedTrial>& trials,
                                        const ScenarioContext& ctx) {
  ProbeSink* const sink = ctx.probe_sink();
  TimelineRecorder* const timeline = ctx.timeline();
  // Attached observers force cold runs: the series must cover every trial.
  ResultCache* const cache =
      sink == nullptr && timeline == nullptr ? ctx.cache() : nullptr;

  std::vector<MemoOutcome> out(trials.size());
  std::vector<std::size_t> misses;
  misses.reserve(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (cache != nullptr && cacheable_key(trials[i].key)) {
      if (std::optional<CachedResult> hit = cache->lookup(trials[i].key)) {
        out[i].row = *hit;
        out[i].from_cache = true;
        continue;
      }
    }
    misses.push_back(i);
  }

  // Observer plane: one pre-allocated probe per trial (jobs fill their own
  // slot, so pool workers never contend), registered in input order below.
  std::vector<RoundProbe> probes;
  if (sink != nullptr) probes.assign(trials.size(), RoundProbe(sink->spec().every));
  const auto run_one = [&](std::size_t idx, ThreadPool* engine_pool) {
    const KeyedTrial& trial = trials[idx];
    RunOptions opts;
    opts.pool = engine_pool;
    opts.timeout_seconds = ctx.trial_timeout();
    opts.telemetry.timeline = timeline;
    if (sink != nullptr && !trial.series.empty()) {
      opts.telemetry.probe = &probes[idx];
    }
    out[idx].row = trial.run ? trial.run(opts) : run_keyed(trial.key, opts);
  };

  // One parallelism axis, decided over the trials that actually run, so a
  // warm run flipping the decision never changes the rows.
  if (prefer_intra_round_sharding(misses.size())) {
    run_one(misses[0], &ctx.pool());
  } else {
    JobBatch batch;
    for (const std::size_t idx : misses) {
      batch.add([&run_one, idx] { run_one(idx, nullptr); });
    }
    batch.run(ctx.pool());
  }

  if (cache != nullptr) {
    for (const std::size_t idx : misses) {
      const KeyedTrial& trial = trials[idx];
      if (cacheable_key(trial.key)) cache->store(trial.key, out[idx].row);
    }
  }
  if (sink != nullptr) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (trials[i].series.empty()) continue;
      sink->add_series(trials[i].series, probes[i].samples(), out[i].row.metrics);
    }
  }
  return out;
}

}  // namespace dyngossip
