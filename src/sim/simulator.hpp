// One-call simulators binding algorithm × adversary × metrics.
//
// These are the library's top-level entry points: each runs one paper
// algorithm against a caller-supplied adversary and returns the measured
// RunResult.  run_oblivious_multi_source implements the full two-phase
// orchestration of Algorithm 2 (center election, walk phase, relabelled
// phase-2 TokenSpace, metric merging) — see Section 3.2.2 and DESIGN.md.
#pragma once

#include <cstdint>

#include "adversary/adversary.hpp"
#include "sim/config.hpp"
#include "sim/run_options.hpp"

namespace dyngossip {

// Every entry point ends in the shared RunOptions (sim/run_options.hpp):
// worker pool, fault plan, wall-clock budget and observers, forwarded to
// every engine the run builds.  Multi-phase executions share one plan so
// liveness history is continuous across phases.

/// Runs Algorithm 1 (Single-Source-Unicast): all k tokens start at `source`.
[[nodiscard]] RunResult run_single_source(std::size_t n, std::uint32_t k,
                                          NodeId source, Adversary& adversary,
                                          Round max_rounds,
                                          const RunOptions& run = {});

/// Runs Multi-Source-Unicast over an arbitrary token labelling.
[[nodiscard]] RunResult run_multi_source(std::size_t n, const TokenSpacePtr& space,
                                         Adversary& adversary, Round max_rounds,
                                         const RunOptions& run = {});

/// Runs the static spanning-tree baseline (static adversary required).
[[nodiscard]] RunResult run_spanning_tree(std::size_t n, const TokenSpacePtr& space,
                                          Adversary& adversary, Round max_rounds,
                                          NodeId root = 0,
                                          const RunOptions& run = {});

/// Runs naive phase flooding (local broadcast) from an arbitrary initial
/// knowledge assignment.
[[nodiscard]] RunResult run_phase_flooding(std::size_t n, std::size_t k,
                                           const std::vector<KnowledgeSet>& initial,
                                           Adversary& adversary, Round max_rounds,
                                           const RunOptions& run = {});

/// Runs uniform-random flooding (local broadcast).
[[nodiscard]] RunResult run_random_flooding(std::size_t n, std::size_t k,
                                            const std::vector<KnowledgeSet>& initial,
                                            Adversary& adversary, Round max_rounds,
                                            std::uint64_t seed,
                                            const RunOptions& run = {});

/// Algorithm 2 options: the shared RunOptions (used by both phase engines;
/// the timeout covers the whole two-phase run, and probe samples carry
/// phase-continuous round numbers) plus the algorithm's own.
struct ObliviousMsOptions : RunOptions {
  std::uint64_t seed = 1;        ///< algorithm randomness (centers + walks)
  Round max_rounds = 0;          ///< global cap (0: derive from n·k)
  Round phase1_cap = 0;          ///< phase-1 cap (0: derive, clamped ℓ bound)
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
