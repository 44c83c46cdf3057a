// Deterministic fork/join primitives on top of ThreadPool.
//
// parallel_for self-schedules indices through a shared atomic counter, so
// trials of uneven cost balance across workers; every index writes only its
// own output slot, so callers get determinism for free by folding slots in
// index order afterwards.  JobBatch is the flattened variant scenarios use:
// every (configuration row × trial) becomes one job so that even two-trial
// sweeps saturate an 8-core pool.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/runner/thread_pool.hpp"

namespace dyngossip {

/// Runs body(0) .. body(count-1) on the pool and blocks until all complete.
/// The first exception thrown by any body is rethrown on the calling thread
/// (after all indices finish or are skipped).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// A flat batch of independent jobs run in one parallel_for.
class JobBatch {
 public:
  /// Adds one job; jobs must only write state no other job touches.
  void add(std::function<void()> job) { jobs_.push_back(std::move(job)); }

  /// Number of jobs added.
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }

  /// Runs every job on the pool; blocks until all complete.
  void run(ThreadPool& pool);

 private:
  std::vector<std::function<void()>> jobs_;
};

}  // namespace dyngossip
