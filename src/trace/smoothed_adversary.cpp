#include "trace/smoothed_adversary.hpp"

#include "common/check.hpp"
#include "trace/trace_format.hpp"

namespace dyngossip {

SmoothedTraceAdversary::SmoothedTraceAdversary(std::unique_ptr<TraceSource> base,
                                               const SmoothedTraceConfig& cfg)
    : base_(std::move(base)),
      cfg_(cfg),
      rng_(cfg.seed),
      base_graph_(base_->header().n),
      current_(base_->header().n) {}

SmoothedTraceAdversary::SmoothedTraceAdversary(const std::string& path,
                                               const SmoothedTraceConfig& cfg)
    : SmoothedTraceAdversary(open_trace_source(path), cfg) {}

std::size_t SmoothedTraceAdversary::num_nodes() const {
  return base_->header().n;
}

const Graph& SmoothedTraceAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  if (!exhausted_) {
    if (base_->next_round(base_graph_)) {
      current_ = base_graph_;
      smooth_round(current_, cfg_.flips_per_round, rng_, connectivity_);
    } else {
      if (r == 1) {
        // User-supplied data, so a recoverable error, not an invariant.
        throw TraceError("smoothed base trace holds no rounds");
      }
      exhausted_ = true;
    }
  }
  return current_;
}

}  // namespace dyngossip
