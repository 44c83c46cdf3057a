// The .dgt dynamic-graph trace format.
//
// A trace is a persisted dynamic-network schedule: the sequence of round
// graphs G_1..G_R an adversary produced (or a generator synthesized), stored
// as per-round edge *deltas* so that recording and replaying never
// materialize more than one round's topology.  The binary layout is
//
//   header   "DGT1"  u16 version  u16 reserved  u32 n  u32 rounds
//            u64 seed  u64 checksum  u32 meta_len  meta bytes
//   blocks   one per round r = 1..rounds:
//              varint ins_count, varint del_count,
//              ins_count varint-delta edge keys (sorted ascending),
//              del_count varint-delta edge keys (sorted ascending)
//   trailer  "DGTE"
//
// `rounds` and `checksum` are patched when the writer finishes (both are
// sentinel values while a trace is being streamed), so an interrupted write
// is detectable.  Edge keys are the canonical (lo << 32 | hi) packing of
// common/types.hpp; sorted keys make consecutive deltas small, so the
// varint-delta coding stores a sparse round change in a handful of bytes.
//
// The checksum folds the entire delta stream (round numbers, counts, keys)
// through SplitMix64.  Two traces with equal checksums and headers replay to
// bit-identical round graphs; the reader re-folds while streaming and
// verifies against the header after the last block.
//
// A JSONL text codec for interchange lives in trace_writer/trace_reader
// (same header fields, one object per round); readers sniff the magic bytes
// to pick the codec.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace dyngossip {

/// Raised on malformed, truncated, or checksum-divergent trace input.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Trace-wide metadata (binary header / JSONL first line).
struct TraceHeader {
  std::uint32_t n = 0;        ///< node count of every round graph
  std::uint32_t rounds = 0;   ///< number of round blocks
  std::uint64_t seed = 0;     ///< generator seed (0 when not applicable)
  std::uint64_t checksum = 0; ///< SplitMix64 fold of the delta stream
  std::string metadata;       ///< free-form generator description
};

namespace trace_format {

inline constexpr char kMagic[4] = {'D', 'G', 'T', '1'};
inline constexpr char kEndMagic[4] = {'D', 'G', 'T', 'E'};
inline constexpr std::uint16_t kVersion = 1;
/// Header value of `rounds` / `checksum` before the writer finishes.
inline constexpr std::uint32_t kUnfinishedRounds = 0xffffffffu;
/// Byte offsets of the patched header fields.
inline constexpr std::size_t kRoundsOffset = 12;
inline constexpr std::size_t kChecksumOffset = 24;
/// Metadata strings are capped so a corrupt length field cannot force a
/// gigabyte allocation before the checksum has a chance to catch it.
inline constexpr std::uint32_t kMaxMetadataBytes = 1u << 20;
/// Node-count sanity cap for the same reason: replay materializes Graph(n)
/// (n adjacency vectors) before the first delta is validated, so a corrupt
/// or hostile header n must be rejected up front.  16.7M nodes is orders of
/// magnitude above the n ~ 10⁴ scale the engines run.
inline constexpr std::uint32_t kMaxNodes = 1u << 24;

}  // namespace trace_format

/// Streaming SplitMix64 fold over the delta stream; writer and reader run
/// the same sequence so equality certifies bit-identical round graphs.
class TraceChecksum {
 public:
  /// Folds one 64-bit word.
  void fold(std::uint64_t x) noexcept;

  /// Folds a full round delta: round number, counts, then every key.
  void fold_round(std::uint32_t round, std::size_t ins_count,
                  std::size_t del_count) noexcept {
    fold(round);
    fold(ins_count);
    fold(del_count);
  }

  /// Current digest.
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x6479676f73736970ull;  // "dygossip"
};

/// Renders a checksum as the fixed-width hex string used in JSON payloads
/// (u64 does not round-trip through a JSON double).
[[nodiscard]] std::string checksum_hex(std::uint64_t checksum);

/// Parses the "key=value key=value ..." convention recorded traces use for
/// TraceHeader::metadata (tolerant: free-form foreign text yields an empty
/// or partial map, never an error).
[[nodiscard]] std::map<std::string, std::string> parse_trace_metadata(
    const std::string& metadata);

/// The integer under `key` in parsed metadata, or `def` when the key is
/// absent or its value is not an integer (a foreign trace's free-form
/// metadata falls back, never errors).
[[nodiscard]] std::int64_t trace_metadata_int(
    const std::map<std::string, std::string>& meta, const std::string& key,
    std::int64_t def);

}  // namespace dyngossip
