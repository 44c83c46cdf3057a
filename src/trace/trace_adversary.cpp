#include "trace/trace_adversary.hpp"

#include "common/check.hpp"

namespace dyngossip {

TraceAdversary::TraceAdversary(std::unique_ptr<TraceSource> source,
                               TraceAdversaryOptions opts)
    : source_(std::move(source)),
      opts_(opts),
      current_(source_->header().n) {
  DG_CHECK(source_ != nullptr);
}

TraceAdversary::TraceAdversary(const std::string& path, TraceAdversaryOptions opts)
    : TraceAdversary(open_trace_source(path), opts) {}

std::size_t TraceAdversary::num_nodes() const { return source_->header().n; }

const Graph& TraceAdversary::next_graph(Round r) {
  DG_CHECK(r == last_round_ + 1);
  last_round_ = r;
  if (!exhausted_ && !source_->next_round(current_)) exhausted_ = true;
  if (exhausted_ && !opts_.hold_last_graph) {
    // A recoverable input problem, not a programming error: the recording is
    // shorter than this run needs.  Surface a fix instead of aborting.
    throw TraceError(
        "run stepped past the end of its trace at round " + std::to_string(r) +
        " (recording holds " + std::to_string(source_->rounds_read()) +
        " rounds); re-record with a higher --cap, or replay with "
        "hold_last_graph to freeze the final topology");
  }
  current_.commit();
  return current_;
}

void TraceAdversary::on_disconnected(Round r, std::size_t components) {
  throw TraceError("trace round " + std::to_string(r) + " is disconnected (" +
                   std::to_string(components) +
                   " components); every round graph of a schedule must be "
                   "connected");
}

}  // namespace dyngossip
