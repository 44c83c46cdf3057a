// Run configurations and result bundles for the simulators.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/tokens.hpp"
#include "metrics/accounting.hpp"

namespace dyngossip {

/// Result of a single simulation run.
struct RunResult {
  RunMetrics metrics;   ///< totals across all phases
  Round rounds = 0;     ///< rounds executed (== metrics.rounds)
  bool completed = false;

  /// Convenience: amortized messages per token.
  [[nodiscard]] double amortized(std::uint64_t k) const {
    return metrics.amortized(k);
  }
};

/// The RunResult of one finished run's metrics.
[[nodiscard]] inline RunResult to_run_result(const RunMetrics& metrics) {
  return {metrics, metrics.rounds, metrics.completed};
}

/// Result of an Algorithm 2 (Oblivious-Multi-Source) run with phase split.
struct ObliviousMsResult {
  RunMetrics total;    ///< merged across phases
  RunMetrics phase1;   ///< random-walk funnelling (zeroed if skipped)
  RunMetrics phase2;   ///< Multi-Source-Unicast with the centers as sources
  std::size_t num_centers = 0;      ///< realized center count (0 if phase 1 skipped)
  Round phase1_rounds = 0;          ///< realized phase-1 length
  bool skipped_phase1 = false;      ///< s <= n^{2/3} log^{5/3} n path taken
  bool phase1_capped = false;       ///< hit the phase-1 round cap (fallback used)
  bool completed = false;           ///< dissemination finished
  std::uint64_t walk_virtual_steps = 0;  ///< self-loop steps (time, not messages)
  std::uint64_t walk_real_steps = 0;     ///< token walk messages
};

/// Field-wise accumulation of phase metrics into a total.
[[nodiscard]] RunMetrics merge_metrics(const RunMetrics& a, const RunMetrics& b);

}  // namespace dyngossip
