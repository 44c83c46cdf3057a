// Streaming trace readers (binary .dgt and JSONL interchange).
//
// A TraceSource yields one round delta at a time and applies it to a
// caller-owned Graph, so replaying a schedule never materializes more than
// the current topology.  Readers validate as they stream — truncation,
// malformed varints, out-of-range endpoints, inserting a live edge, or
// removing an absent one all raise TraceError — and after the final block
// verify the re-folded delta-stream checksum against the header, which
// certifies the replayed graphs are bit-identical to the recorded ones.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runner/json.hpp"
#include "trace/trace_format.hpp"

namespace dyngossip {

/// Streaming source of round deltas (binary reader, JSONL reader, and any
/// future synthetic source share this interface; TraceAdversary and the
/// trace transforms consume it).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Trace-wide metadata, available immediately after construction.
  [[nodiscard]] virtual const TraceHeader& header() const noexcept = 0;

  /// Applies round (rounds_read()+1)'s delta to g and returns true, or
  /// returns false when the trace is exhausted (checksum verified by then).
  /// g must be the graph produced by the previous next_round calls —
  /// initially an empty graph on header().n nodes.  Throws TraceError on
  /// malformed input or a delta inconsistent with g.
  virtual bool next_round(Graph& g) = 0;

  /// Rounds applied so far.
  [[nodiscard]] virtual Round rounds_read() const noexcept = 0;

  /// Net sizes of the delta the most recent next_round applied (0 before
  /// the first round): keys in one of its lists but not the other, since a
  /// key in both is removed and re-inserted in the same round (a no-op for
  /// the graph).  Σ insertions over a trace is the schedule's TC(E).
  [[nodiscard]] virtual std::size_t last_insertions() const noexcept = 0;
  [[nodiscard]] virtual std::size_t last_removals() const noexcept = 0;
};

/// Shared delta application + checksum verification for the two codecs.
///
/// The base drives a lookahead protocol so the checksum is verified eagerly
/// as part of applying the *last* block — a consumer that stops exactly at
/// the end of the trace (a replayed run of the recorded length) still gets
/// the bit-identity guarantee without a trailing next_round call.
class TraceReaderBase : public TraceSource {
 public:
  [[nodiscard]] const TraceHeader& header() const noexcept override {
    return header_;
  }
  [[nodiscard]] Round rounds_read() const noexcept override { return rounds_read_; }
  [[nodiscard]] std::size_t last_insertions() const noexcept override {
    return ins_scratch_.size() - readded();
  }
  [[nodiscard]] std::size_t last_removals() const noexcept override {
    return del_scratch_.size() - readded();
  }

  bool next_round(Graph& g) final;

 protected:
  /// Codec hook: true while another round block follows (a binary reader
  /// counts against the header, the JSONL reader inspects its lookahead).
  [[nodiscard]] virtual bool have_more_blocks() = 0;

  /// Codec hook: decodes the next round block (lists cleared by the caller;
  /// only called when have_more_blocks()).
  virtual void read_block(Round round, std::vector<EdgeKey>& insertions,
                          std::vector<EdgeKey>& removals) = 0;

  /// Codec hook: consumes and validates the trailer, filling in any header
  /// fields the codec only learns at the end (JSONL rounds/checksum).  The
  /// observed stream totals are passed so a codec whose trailer may omit
  /// them (hand-written JSONL from an external producer) can default to
  /// them instead of failing the base's cross-check.
  virtual void read_trailer(Round rounds_seen, std::uint64_t checksum_seen) = 0;

  TraceHeader header_;

 private:
  /// Keys in both lists of the most recent block (removed, then re-added).
  [[nodiscard]] std::size_t readded() const noexcept;

  Round rounds_read_ = 0;
  bool finished_ = false;
  TraceChecksum checksum_;
  std::vector<EdgeKey> ins_scratch_;
  std::vector<EdgeKey> del_scratch_;
};

/// Binary .dgt reader.
class BinaryTraceReader final : public TraceReaderBase {
 public:
  /// Reads and validates the header; the stream must outlive the reader.
  /// Throws TraceError on bad magic, an unsupported version, or a trace
  /// whose writer never finished.
  explicit BinaryTraceReader(std::istream& in);
  /// File-owning variant (used by open_trace_source).
  explicit BinaryTraceReader(std::unique_ptr<std::ifstream> file);

 protected:
  [[nodiscard]] bool have_more_blocks() override;
  void read_block(Round round, std::vector<EdgeKey>& insertions,
                  std::vector<EdgeKey>& removals) override;
  void read_trailer(Round rounds_seen, std::uint64_t checksum_seen) override;

 private:
  void read_header();
  [[nodiscard]] std::uint64_t read_varint();
  void read_key_list(std::vector<EdgeKey>& out, std::size_t count);

  std::unique_ptr<std::ifstream> owned_;
  std::istream* in_;
  Round blocks_decoded_ = 0;
};

/// JSONL reader (the interchange codec's inverse).  header().rounds and
/// header().checksum are only final after the whole stream has been read —
/// the JSONL trailer carries them.
class JsonlTraceReader final : public TraceReaderBase {
 public:
  explicit JsonlTraceReader(std::istream& in);
  explicit JsonlTraceReader(std::unique_ptr<std::ifstream> file);

 protected:
  [[nodiscard]] bool have_more_blocks() override;
  void read_block(Round round, std::vector<EdgeKey>& insertions,
                  std::vector<EdgeKey>& removals) override;
  void read_trailer(Round rounds_seen, std::uint64_t checksum_seen) override;

 private:
  void read_header();
  /// Loads the next non-empty line into pending_ (null when EOF).
  void advance();

  std::unique_ptr<std::ifstream> owned_;
  std::istream* in_;
  JsonValue pending_;
  bool pending_valid_ = false;
};

/// Opens a trace file, sniffing the codec from the leading bytes ("DGT1"
/// selects the binary reader, '{' the JSONL reader).  Throws TraceError on
/// missing files or unrecognized content.
[[nodiscard]] std::unique_ptr<TraceSource> open_trace_source(const std::string& path);

}  // namespace dyngossip
