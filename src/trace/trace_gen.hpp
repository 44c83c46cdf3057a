// Synthetic trace generation and trace-to-trace transforms.
//
// Three ways to make a schedule into data:
//   - record_schedule drives any oblivious adversary for a fixed horizon and
//     streams its round graphs to a writer (the offline counterpart of
//     wrapping a live run in TraceRecorder);
//   - generate_sigma_churn_trace persists the σ-interval-stable high-churn
//     family (adversary/sigma_stable.hpp) — the stress workload that keeps
//     request-based algorithms runnable at n = 10⁴;
//   - smooth_trace implements the smoothed-analysis model (Meir, Fineman &
//     Newport): each round of a *fixed* base schedule is independently
//     perturbed by flipping k random node pairs, then patched back to
//     connectivity, yielding the k-smoothed schedule as a new trace.
#pragma once

#include <cstdint>

#include "adversary/adversary.hpp"
#include "adversary/sigma_stable.hpp"
#include "graph/connectivity.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {

/// Streams `rounds` round graphs of an oblivious adversary to `out` (the
/// adversary is driven through its view-free path, so adaptive adversaries —
/// whose schedules are not data until a run exists — are not eligible; wrap
/// those in TraceRecorder instead).  Does not finish() the writer.
void record_schedule(ObliviousAdversary& adversary, Round rounds, TraceWriter& out);

/// Generates a σ-interval-stable churn trace (see SigmaStableChurnConfig).
/// Does not finish() the writer.
void generate_sigma_churn_trace(const SigmaStableChurnConfig& cfg, Round rounds,
                                TraceWriter& out);

/// Smoothed-schedule parameters.
struct SmoothedTraceConfig {
  std::size_t flips_per_round = 1;  ///< k: random pair flips per round
  std::uint64_t seed = 1;           ///< perturbation randomness
};

/// One smoothing step: toggles `flips` uniformly random node pairs of g
/// (absent edges inserted, present edges deleted), then patches
/// connectivity with random edges through the caller's reused `connectivity`
/// buffers.  Shared by smooth_trace and the live SmoothedTraceAdversary so
/// both realize identical schedules per seed.
void smooth_round(Graph& g, std::size_t flips, Rng& rng,
                  ConnectivityChecker& connectivity);

/// Writes the k-smoothed perturbation of `base` to `out`: per round,
/// `flips_per_round` uniformly random node pairs are toggled (absent edges
/// inserted, present edges deleted), then connectivity is patched with
/// random edges.  Perturbations are independent across rounds, per the
/// smoothed-analysis model.  Does not finish() the writer.  Throws
/// TraceError when `base` is malformed.
void smooth_trace(TraceSource& base, const SmoothedTraceConfig& cfg, TraceWriter& out);

}  // namespace dyngossip
