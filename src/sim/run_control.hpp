// The run contract the three engines share: fault stepping, the stop
// ladder, residual coverage and the probe sample stream.
//
// Every engine runs the same loop around its own unit of work (a round for
// the synchronous engines, one clock activation for the async engine):
//
//   while (more()) {
//     all live nodes down for good       -> stop kAllDown
//     step() reports its horizon reached -> stop kRoundCap
//     no learning for a stall window     -> stop kStalled   (fault plan only)
//     wall-clock budget spent            -> stop kTimeout   (checked every
//                                           watchdog period units)
//   }
//   status = run_complete() ? kCompleted : the stop above (else kRoundCap)
//
// An inactive fault plan makes every fault answer a constant (nobody
// crashes, nothing stalls, completion is "every node knows everything"), so
// the fault-free run goes through the same loop with no separate branch.
// The engines keep their own `fault_active()` checks inside the send and
// delivery loops, which are the per-message hot path.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/knowledge_set.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/accounting.hpp"
#include "sim/run_options.hpp"

namespace dyngossip {

class TimelineRecorder;

/// An engine's stop-ladder constants, in the engine's own unit of work.
/// They are properties of the engine, not user options.
struct RunCadence {
  /// Stall window = max(stall_floor, stall_per_node · n) quiet units.
  std::uint64_t stall_floor;
  std::uint64_t stall_per_node;
  /// Units between two wall-clock reads of the timeout watchdog.
  std::uint32_t watchdog_period;
};

/// The synchronous engines' cadence: a stall is max(256, 2n) quiet rounds,
/// and the watchdog reads the clock every 32 rounds.
inline constexpr RunCadence kRoundCadence{256, 2, 32};

/// Owned by an engine and bound to its knowledge mirror, completion counter
/// and metrics (so it is neither copyable nor movable).  Construction
/// checks every K_v(0) against the k-token universe and counts the nodes
/// that start complete.
class RunControl {
 public:
  RunControl(const RunOptions& opts, RunCadence cadence,
             std::vector<KnowledgeSet>& knowledge, std::size_t k,
             std::size_t& complete_nodes, RunMetrics& metrics);
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  [[nodiscard]] FaultPlan* faults() const noexcept { return faults_; }
  /// faults() != null && faults()->active().
  [[nodiscard]] bool fault_active() const noexcept { return fault_active_; }
  /// fault_active() && crashes wipe knowledge.
  [[nodiscard]] bool amnesia() const noexcept { return amnesia_; }
  /// True iff node v is crashed in the current round (never without an
  /// active plan): its clock is silent and it receives nothing.
  [[nodiscard]] bool down(NodeId v) const {
    return fault_active_ && !faults_->is_live(v);
  }
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }
  [[nodiscard]] TimelineRecorder* timeline() const noexcept {
    return telemetry_.timeline;
  }
  [[nodiscard]] bool probing() const noexcept {
    return telemetry_.probe != nullptr;
  }

  /// Node shards for one round of an n-node sharded engine (1: serial).
  [[nodiscard]] std::size_t plan_shards(std::size_t min_parallel_nodes) const noexcept;

  /// Fault plane at the start of round r: advances the liveness mask and,
  /// under amnesia, wipes the knowledge of the nodes that crashed in r.
  void begin_round(Round r);

  /// Run-level completion: every node complete without a fault plan; under
  /// an active plan, at least one node live and every live node complete
  /// (crashed nodes don't count until they recover).
  [[nodiscard]] bool run_complete() const {
    return fault_active_ ? live_nodes_complete()
                         : complete_nodes_ == knowledge_.size();
  }

  /// Fraction of (node, token) pairs currently known (1.0 for an empty
  /// universe) — the residual coverage of a degraded run.
  [[nodiscard]] double coverage() const;

  /// Probe-only tallies of fault fates (drops, extra duplicate copies) since
  /// the last sample; engines add to them only while probing().
  std::uint64_t probe_dropped = 0;
  std::uint64_t probe_duplicated = 0;

  /// Edge count of the current round graph, reported by the next sample.
  void round_graph(std::uint64_t edges) noexcept { probe_edges_ = edges; }

  /// End of round r: records a probe sample when the probe's stride wants r.
  void round_done(Round r) {
    if (telemetry_.probe != nullptr) sample(r, /*flush=*/false);
  }

  /// The shared run loop (see the file comment), then the status ladder,
  /// the final coverage and a flush sample at `last_round` when
  /// `last_round > start_offset`, so per-round sums reconcile with the
  /// totals at any stride.  `more()` tests the engine's own stop predicate
  /// and cap; `step()` runs one unit and returns false when the engine's
  /// horizon left nothing to run.
  template <class More, class Step>
  RunMetrics run(const Round& last_round, Round start_offset, More&& more,
                 Step&& step) {
    stop_ = RunStatus::kRoundCap;
    const auto started = std::chrono::steady_clock::now();
    std::uint64_t last_learnings = metrics_.learnings;
    std::uint64_t quiet = 0;
    std::uint32_t ticks = 0;
    while (more()) {
      if (all_down()) {
        stop_ = RunStatus::kAllDown;
        break;
      }
      if (!step()) break;
      if (fault_active_) {
        if (metrics_.learnings != last_learnings) {
          last_learnings = metrics_.learnings;
          quiet = 0;
        } else if (++quiet >= stall_window_) {
          stop_ = RunStatus::kStalled;
          break;
        }
      }
      if (timeout_seconds_ > 0.0 && (++ticks % watchdog_period_) == 0u &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
                  .count() >= timeout_seconds_) {
        stop_ = RunStatus::kTimeout;
        break;
      }
    }
    return finish(last_round, last_round > start_offset);
  }

 private:
  [[nodiscard]] bool all_down() const {
    return fault_active_ && faults_->live_count() == 0 && !faults_->can_recover();
  }
  [[nodiscard]] bool live_nodes_complete() const;
  [[nodiscard]] RunMetrics finish(Round last_round, bool ran);
  void sample(Round r, bool flush);

  FaultPlan* faults_;
  bool fault_active_;
  bool amnesia_;
  ThreadPool* pool_;
  double timeout_seconds_;
  Telemetry telemetry_;
  std::uint64_t stall_window_;
  std::uint32_t watchdog_period_;
  std::vector<KnowledgeSet>& knowledge_;
  std::size_t k_;
  std::size_t& complete_nodes_;
  RunMetrics& metrics_;
  RunStatus stop_ = RunStatus::kRoundCap;
  // Probe bookkeeping (touched only with a probe attached): metrics at the
  // last sample (samples carry deltas) and the current graph's edge count.
  RunMetrics probe_prev_;
  std::uint64_t probe_edges_ = 0;
};

}  // namespace dyngossip
