// Trace-backed adversaries: record any schedule, replay any trace.
//
// TraceRecorder decorates an existing Adversary and tees every round graph
// it produces to a TraceWriter — the decorated adversary is unaware, the
// engine sees the exact same Graph references, and the run's metrics are
// untouched.  TraceAdversary replays a persisted schedule through either
// engine: it applies each round's delta to a single reused Graph, so a
// replayed round costs O(|Δ_r|) with no per-round allocation beyond the
// decoder scratch, and the reader's checksum verification certifies the
// replayed graphs are bit-identical to the recorded ones.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace dyngossip {

/// Adversary decorator that records the wrapped adversary's schedule.
///
/// Works for both engine models; each round's graph is diffed and appended
/// by the writer as it is produced.  The caller finishes the writer (or
/// lets its destructor do so) after the run.
class TraceRecorder final : public Adversary {
 public:
  /// Neither reference is owned; both must outlive the recorder.
  TraceRecorder(Adversary& inner, TraceWriter& writer)
      : inner_(inner), writer_(writer) {}

  [[nodiscard]] std::size_t num_nodes() const override { return inner_.num_nodes(); }

  [[nodiscard]] const Graph& broadcast_round(const BroadcastRoundView& view) override {
    const Graph& g = inner_.broadcast_round(view);
    writer_.append_round(g);
    return g;
  }

  [[nodiscard]] const Graph& unicast_round(const UnicastRoundView& view) override {
    const Graph& g = inner_.unicast_round(view);
    writer_.append_round(g);
    return g;
  }

  void on_disconnected(Round r, std::size_t components) override {
    inner_.on_disconnected(r, components);
  }

 private:
  Adversary& inner_;
  TraceWriter& writer_;
};

/// Behaviour when a run outlives its trace.
struct TraceAdversaryOptions {
  /// Keep serving the final recorded graph after the trace is exhausted
  /// (lets a longer-running algorithm finish against a frozen topology).
  /// When false, stepping past the end is a DG_CHECK failure.
  bool hold_last_graph = true;
};

/// Replays a recorded schedule.  Oblivious by construction: the sequence was
/// committed before the run (it is on disk), so the replay ignores all
/// adversary views — which also makes one trace replayable against any
/// algorithm in either engine model.
class TraceAdversary final : public ObliviousAdversary {
 public:
  explicit TraceAdversary(std::unique_ptr<TraceSource> source,
                          TraceAdversaryOptions opts = {});

  /// Convenience: opens `path` with open_trace_source.
  explicit TraceAdversary(const std::string& path, TraceAdversaryOptions opts = {});

  [[nodiscard]] std::size_t num_nodes() const override;

  /// Trace metadata (see TraceSource::header on JSONL field availability).
  [[nodiscard]] const TraceHeader& trace_header() const noexcept {
    return source_->header();
  }

  /// Rounds replayed from the trace so far.
  [[nodiscard]] Round rounds_replayed() const noexcept {
    return source_->rounds_read();
  }

  /// True once the trace ran out and the final graph is being held.
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

  /// A disconnected round is bad input, not a bug: throws TraceError
  /// naming the round.
  void on_disconnected(Round r, std::size_t components) override;

 protected:
  [[nodiscard]] const Graph& next_graph(Round r) override;

 private:
  std::unique_ptr<TraceSource> source_;
  TraceAdversaryOptions opts_;
  Graph current_;
  Round last_round_ = 0;
  bool exhausted_ = false;
};

}  // namespace dyngossip
