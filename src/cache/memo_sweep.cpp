#include "cache/memo_sweep.hpp"

#include <utility>

#include "algo/registry.hpp"
#include "sim/runner/parallel.hpp"
#include "sim/runner/shard_schedule.hpp"

namespace dyngossip {

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

std::vector<MemoOutcome> memoized_sweep(const std::vector<KeyedTrial>& trials,
                                        ResultCache* cache, ThreadPool& pool) {
  std::vector<MemoOutcome> out(trials.size());
  std::vector<std::size_t> misses;
  misses.reserve(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (cache != nullptr && trials[i].cacheable) {
      if (std::optional<CachedResult> hit = cache->lookup(trials[i].key)) {
        out[i].row = *hit;
        out[i].from_cache = true;
        continue;
      }
    }
    misses.push_back(i);
  }

  // One parallelism axis, decided over the trials that actually run: a lone
  // miss runs here with the pool handed to its engines, anything more fans
  // out across the pool.  Either axis is bit-identical (the shard_schedule
  // invariant), so a warm run flipping the decision never changes the rows.
  if (prefer_intra_round_sharding(misses.size())) {
    out[misses[0]].row = trials[misses[0]].run(&pool);
  } else {
    JobBatch batch;
    for (const std::size_t idx : misses) {
      batch.add([&out, &trials, idx] { out[idx].row = trials[idx].run(nullptr); });
    }
    batch.run(pool);
  }

  if (cache != nullptr) {
    bool stored = false;
    for (const std::size_t idx : misses) {
      const KeyedTrial& trial = trials[idx];
      if (trial.cacheable && cache_should_store(out[idx].row.metrics.status)) {
        cache->store(trial.key, out[idx].row);
        stored = true;
      }
    }
    if (stored) cache->write_index();
  }
  return out;
}

}  // namespace dyngossip
