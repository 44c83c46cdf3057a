// Trial-level vs intra-round parallelism policy.
//
// The ThreadPool is a leaf executor: parallel_for submits tasks and blocks
// in wait_idle, so it may only be driven from a non-pool thread.  A scenario
// therefore has to pick ONE axis per table: either fan trials out across the
// pool (JobBatch, engines serial) or run its lone trial on the caller thread
// and hand that trial's engines the pool.  Both axes are deterministic —
// trials write preassigned slots, the broadcast engine merges shards in node
// order — so the choice affects wall time only, never results.
#pragma once

#include <cstddef>

namespace dyngossip {

/// True when a table of `jobs` independent trials should run its trial on
/// the caller thread with the pool handed to the engines instead of being
/// fanned out across the pool.  Rule: only a lone trial, which would
/// otherwise leave every other worker idle.  Two or more trials side by
/// side beat running them one after another with sharded engines on the
/// measured runs (docs/PERFORMANCE.md, *Serial vs sharded on 4 vCPUs*); the
/// unicast engine ignores the pool, and a 1-worker pool plans one shard.
[[nodiscard]] inline bool prefer_intra_round_sharding(std::size_t jobs) {
  return jobs == 1;
}

}  // namespace dyngossip
