// The run-side options every engine, entry point and algorithm factory
// shares.  Engine option structs (UnicastEngineOptions, ...), the
// Algorithm 2 options and AlgoBuildContext inherit from RunOptions and add
// only their own fields, so one RunOptions value flows unchanged from a
// scenario trial through the registry to every engine a run builds.
#pragma once

#include "telemetry/telemetry.hpp"

namespace dyngossip {

class FaultPlan;
class ThreadPool;

struct RunOptions {
  /// Worker pool for intra-round sharding; only BroadcastEngine reads it
  /// (the unicast and async engines run every round on the calling
  /// thread).  Null or a 1-worker pool keeps the serial path.  Sharding
  /// requires that node algorithms touch only node-local state in their
  /// send/receive hooks, and the engine must run on a non-pool thread: the
  /// pool is a leaf executor (see sim/runner/thread_pool.hpp), so hand
  /// engines a pool only when trials are NOT already parallelized across it
  /// (memoized_sweep in cache/memo_sweep.cpp implements that policy).
  /// Results are bit-identical to the serial engine at any thread count.
  ThreadPool* pool = nullptr;
  /// Per-trial fault plan (not owned; multi-phase executions share one, so
  /// liveness history is continuous across phases).  Null or inactive makes
  /// every fault answer a constant.  All fault decisions are position-keyed
  /// (see fault/fault_plan.hpp), so faulty runs stay bit-identical at any
  /// thread count.
  FaultPlan* faults = nullptr;
  /// Wall-clock budget for one run in seconds (0: none).  An over-budget
  /// run stops with RunStatus::kTimeout — by construction a
  /// non-reproducible outcome (it depends on the host, not the seed).
  double timeout_seconds = 0.0;
  /// Observer plane (telemetry/telemetry.hpp): an optional per-round probe
  /// and an optional wall-clock timeline, both non-owning and forwarded to
  /// every engine of a run.  Null pointers skip all observer work; attached
  /// observers only READ engine state, so payloads are byte-identical
  /// either way.
  Telemetry telemetry;
};

}  // namespace dyngossip
