// Algorithm 2's two-phase driver (Oblivious-Multi-Source-Unicast,
// Section 3.2.2): center election, the random-walk phase, the relabelled
// phase-2 TokenSpace and the merged metrics.  Every other algorithm runs
// through the registry (algo/registry.hpp: run_algo); this driver stays a
// function of its own because `table1`, `oblivious_funnel` and `ablations`
// read its phase split (centers, walk steps, phase-1 rounds), which a
// RunResult does not carry.  The `oblivious` family wraps it.
#pragma once

#include <cstdint>

#include "adversary/adversary.hpp"
#include "sim/config.hpp"
#include "sim/run_options.hpp"

namespace dyngossip {

/// Algorithm 2 options: the shared RunOptions plus the algorithm's own.
/// Both phase engines get the same RunOptions: they share one fault plan
/// (liveness history is continuous), the timeout covers the whole run, and
/// probe samples carry phase-continuous round numbers.
struct ObliviousMsOptions : RunOptions {
  std::uint64_t seed = 1;        ///< algorithm randomness (centers + walks)
  /// Global cap (0: derive from n·k).  Phase 1 stops at the clamped ℓ
  /// bound min(phase1_round_bound, max_rounds/2).
  Round max_rounds = 0;
  bool pseudocode_walk_prob = false;  ///< the 1/d(u) variant (paper typo)
  bool force_phase1 = false;     ///< run phase 1 even when s is small
  /// Overrides the expected center count f (0: paper formula
  /// n^{1/2} k^{1/4} log^{5/4} n).  At laptop-scale n the log^{5/4} factor
  /// saturates the formula at f = n, collapsing phase 1; benches drop the
  /// polylog factor to reproduce the asymptotic *shape* (see EXPERIMENTS.md).
  std::size_t f_override = 0;
};

/// Runs Algorithm 2 (Oblivious-Multi-Source-Unicast).  The adversary must
/// be oblivious for the guarantees to apply (not enforced: benches also
/// probe it against adaptive adversaries to show where the analysis breaks).
[[nodiscard]] ObliviousMsResult run_oblivious_multi_source(
    std::size_t n, const TokenSpacePtr& space, Adversary& adversary,
    const ObliviousMsOptions& opts);

}  // namespace dyngossip
