// Smoothed-perturbation adversary: replay a base trace, flip k pairs/round.
//
// The live counterpart of smooth_trace (trace_gen.hpp), following the
// smoothed-analysis model (Meir, Fineman & Newport; see PAPERS.md): each
// round of a fixed base schedule is independently perturbed by toggling
// `flips_per_round` uniformly random node pairs, then patched back to
// connectivity.  Same seed + same base ⇒ the exact graphs smooth_trace
// would have written — the registry's `smoothed:` family streams the
// perturbation instead of materializing an intermediate trace file.
//
// Oblivious by construction: the base schedule is on disk and the
// perturbation is a pure function of the seed and round number.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_reader.hpp"

namespace dyngossip {

/// Replays a base schedule under per-round k-flip smoothing.  After the base
/// trace is exhausted the final perturbed graph is held frozen (mirroring
/// TraceAdversaryOptions::hold_last_graph), so longer runs can finish.
class SmoothedTraceAdversary final : public ObliviousAdversary {
 public:
  SmoothedTraceAdversary(std::unique_ptr<TraceSource> base,
                         const SmoothedTraceConfig& cfg);

  /// Convenience: opens `path` with open_trace_source.
  SmoothedTraceAdversary(const std::string& path, const SmoothedTraceConfig& cfg);

  [[nodiscard]] std::size_t num_nodes() const override;

  /// True once the base trace ran out and the final graph is being held.
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

 protected:
  [[nodiscard]] const Graph& next_graph(Round r) override;

 private:
  std::unique_ptr<TraceSource> base_;
  SmoothedTraceConfig cfg_;
  Rng rng_;
  Graph base_graph_;
  Graph current_;
  ConnectivityChecker connectivity_;  ///< reused buffers of the repair
  Round last_round_ = 0;
  bool exhausted_ = false;
};

}  // namespace dyngossip
