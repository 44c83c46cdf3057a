#include "trace/trace_reader.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace dyngossip {

namespace {

[[nodiscard]] std::uint64_t parse_hex_u64(const std::string& text) {
  if (text.empty() || text.size() > 16) throw TraceError("bad hex field: " + text);
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw TraceError("bad hex field: " + text);
    }
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceReaderBase
// ---------------------------------------------------------------------------

bool TraceReaderBase::next_round(Graph& g) {
  if (finished_) return false;
  if (g.num_nodes() != header_.n) {
    // A caller/recording mismatch (e.g. a scenario grid sized differently
    // from the trace), not a programming error: report both sides.
    throw TraceError("trace is over n=" + std::to_string(header_.n) +
                     " nodes but the consumer stepped a graph on n=" +
                     std::to_string(g.num_nodes()) +
                     "; size the run from the trace header (see "
                     "`dyngossip trace info`)");
  }

  auto seal = [this] {
    read_trailer(rounds_read_, checksum_.value());
    if (header_.rounds != rounds_read_) {
      throw TraceError("trace round count mismatch: trailer says " +
                       std::to_string(header_.rounds) + ", stream held " +
                       std::to_string(rounds_read_));
    }
    if (header_.checksum != checksum_.value()) {
      throw TraceError("trace checksum mismatch: header " +
                       checksum_hex(header_.checksum) + ", stream " +
                       checksum_hex(checksum_.value()));
    }
    finished_ = true;
  };

  if (!have_more_blocks()) {
    seal();
    return false;
  }

  const Round r = rounds_read_ + 1;
  ins_scratch_.clear();
  del_scratch_.clear();
  read_block(r, ins_scratch_, del_scratch_);

  auto validate = [this](const std::vector<EdgeKey>& keys) {
    EdgeKey prev = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i] <= prev) throw TraceError("unsorted round delta");
      const auto [lo, hi] = edge_endpoints(keys[i]);
      if (lo >= hi || hi >= header_.n) throw TraceError("edge endpoint out of range");
      prev = keys[i];
    }
  };
  validate(ins_scratch_);
  validate(del_scratch_);

  for (const EdgeKey key : del_scratch_) {
    const auto [u, v] = edge_endpoints(key);
    if (!g.remove_edge(u, v)) throw TraceError("trace removes an absent edge");
  }
  for (const EdgeKey key : ins_scratch_) {
    const auto [u, v] = edge_endpoints(key);
    if (!g.add_edge(u, v)) throw TraceError("trace inserts a live edge");
  }

  checksum_.fold_round(r, ins_scratch_.size(), del_scratch_.size());
  for (const EdgeKey key : ins_scratch_) checksum_.fold(key);
  for (const EdgeKey key : del_scratch_) checksum_.fold(key);
  rounds_read_ = r;

  // Verify eagerly once the stream is drained: a consumer that stops at the
  // recorded length still gets the checksum guarantee.
  if (!have_more_blocks()) seal();
  return true;
}

std::size_t TraceReaderBase::readded() const noexcept {
  // Both lists are sorted (next_round validated them): one merge walk.
  std::size_t common = 0;
  std::size_t i = 0;
  std::size_t d = 0;
  while (i < ins_scratch_.size() && d < del_scratch_.size()) {
    if (ins_scratch_[i] < del_scratch_[d]) {
      ++i;
    } else if (del_scratch_[d] < ins_scratch_[i]) {
      ++d;
    } else {
      ++common;
      ++i;
      ++d;
    }
  }
  return common;
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

BinaryTraceReader::BinaryTraceReader(std::istream& in) : in_(&in) { read_header(); }

BinaryTraceReader::BinaryTraceReader(std::unique_ptr<std::ifstream> file)
    : owned_(std::move(file)), in_(owned_.get()) {
  read_header();
}

void BinaryTraceReader::read_header() {
  char magic[4];
  in_->read(magic, sizeof(magic));
  if (!*in_ || std::memcmp(magic, trace_format::kMagic, sizeof(magic)) != 0) {
    throw TraceError("not a .dgt trace (bad magic)");
  }
  auto read_bytes = [this](void* dst, std::size_t len) {
    in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    if (!*in_) throw TraceError("truncated trace header");
  };
  auto read_u16 = [&read_bytes] {
    unsigned char b[2];
    read_bytes(b, 2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  };
  auto read_u32 = [&read_bytes] {
    unsigned char b[4];
    read_bytes(b, 4);
    return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  };
  auto read_u64 = [&read_u32] {
    const std::uint64_t lo = read_u32();
    const std::uint64_t hi = read_u32();
    return lo | (hi << 32);
  };

  const std::uint16_t version = read_u16();
  if (version != trace_format::kVersion) {
    throw TraceError("unsupported trace version " + std::to_string(version));
  }
  (void)read_u16();  // reserved
  header_.n = read_u32();
  if (header_.n > trace_format::kMaxNodes) {
    throw TraceError("trace node count implausible (corrupt header)");
  }
  header_.rounds = read_u32();
  header_.seed = read_u64();
  header_.checksum = read_u64();
  const std::uint32_t meta_len = read_u32();
  if (meta_len > trace_format::kMaxMetadataBytes) {
    throw TraceError("trace metadata length implausible (corrupt header)");
  }
  header_.metadata.resize(meta_len);
  if (meta_len > 0) read_bytes(header_.metadata.data(), meta_len);

  if (header_.rounds == trace_format::kUnfinishedRounds) {
    throw TraceError("trace writer never finished (round count unsealed)");
  }
}

bool BinaryTraceReader::have_more_blocks() {
  return blocks_decoded_ < header_.rounds;
}

std::uint64_t BinaryTraceReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = in_->get();
    if (c == std::istream::traits_type::eof()) throw TraceError("truncated trace block");
    const auto byte = static_cast<std::uint64_t>(c);
    if (shift > 63 || (shift == 63 && (byte & 0x7f) > 1)) {
      throw TraceError("varint overflow (corrupt trace)");
    }
    v |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

void BinaryTraceReader::read_key_list(std::vector<EdgeKey>& out, std::size_t count) {
  EdgeKey prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t delta = read_varint();
    const EdgeKey key = i == 0 ? delta : prev + delta;
    if (i > 0 && key <= prev) throw TraceError("non-increasing key delta");
    out.push_back(key);
    prev = key;
  }
}

void BinaryTraceReader::read_block(Round /*round*/, std::vector<EdgeKey>& insertions,
                                   std::vector<EdgeKey>& removals) {
  const std::uint64_t ins_count = read_varint();
  const std::uint64_t del_count = read_varint();
  // A round can change at most n(n-1)/2 edges each way; anything bigger is a
  // corrupt count that would otherwise turn into a huge allocation.
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(header_.n) * (header_.n - 1) / 2;
  if (ins_count > max_edges || del_count > max_edges) {
    throw TraceError("round delta count implausible (corrupt trace)");
  }
  read_key_list(insertions, static_cast<std::size_t>(ins_count));
  read_key_list(removals, static_cast<std::size_t>(del_count));
  ++blocks_decoded_;
}

void BinaryTraceReader::read_trailer(Round /*rounds_seen*/,
                                     std::uint64_t /*checksum_seen*/) {
  char magic[4];
  in_->read(magic, sizeof(magic));
  if (!*in_ || std::memcmp(magic, trace_format::kEndMagic, sizeof(magic)) != 0) {
    throw TraceError("trace end marker missing (truncated file)");
  }
}

// ---------------------------------------------------------------------------
// JSONL codec
// ---------------------------------------------------------------------------

JsonlTraceReader::JsonlTraceReader(std::istream& in) : in_(&in) { read_header(); }

JsonlTraceReader::JsonlTraceReader(std::unique_ptr<std::ifstream> file)
    : owned_(std::move(file)), in_(owned_.get()) {
  read_header();
}

void JsonlTraceReader::advance() {
  std::string line;
  pending_valid_ = false;
  while (std::getline(*in_, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      pending_ = JsonValue::parse(line);
    } catch (const std::runtime_error& e) {
      throw TraceError(std::string("bad JSONL trace line: ") + e.what());
    }
    pending_valid_ = true;
    return;
  }
}

void JsonlTraceReader::read_header() {
  advance();
  if (!pending_valid_) throw TraceError("empty JSONL trace");
  const JsonValue* version = pending_.find("dgt");
  const JsonValue* n = pending_.find("n");
  if (version == nullptr || n == nullptr ||
      version->type() != JsonValue::Type::kNumber ||
      n->type() != JsonValue::Type::kNumber ||
      static_cast<int>(version->as_number()) != trace_format::kVersion) {
    throw TraceError("bad JSONL trace header");
  }
  const double n_raw = n->as_number();
  if (!(n_raw >= 0 && n_raw <= trace_format::kMaxNodes)) {
    throw TraceError("trace node count implausible (corrupt header)");
  }
  header_.n = static_cast<std::uint32_t>(n_raw);
  if (const JsonValue* seed = pending_.find("seed");
      seed != nullptr && seed->type() == JsonValue::Type::kString) {
    header_.seed = parse_hex_u64(seed->as_string());
  }
  if (const JsonValue* meta = pending_.find("metadata");
      meta != nullptr && meta->type() == JsonValue::Type::kString) {
    header_.metadata = meta->as_string();
  }
  advance();  // preload the first round / trailer line
}

bool JsonlTraceReader::have_more_blocks() {
  return pending_valid_ && pending_.find("end") == nullptr;
}

void JsonlTraceReader::read_block(Round round, std::vector<EdgeKey>& insertions,
                                  std::vector<EdgeKey>& removals) {
  const JsonValue* r = pending_.find("r");
  if (r == nullptr || r->type() != JsonValue::Type::kNumber ||
      static_cast<Round>(r->as_number()) != round) {
    throw TraceError("JSONL round number out of sequence");
  }
  auto decode = [this](const char* field, std::vector<EdgeKey>& out) {
    const JsonValue* list = pending_.find(field);
    if (list == nullptr || list->type() != JsonValue::Type::kArray) {
      throw TraceError(std::string("JSONL round missing '") + field + "' list");
    }
    for (const JsonValue& pair : list->items()) {
      if (pair.type() != JsonValue::Type::kArray || pair.items().size() != 2) {
        throw TraceError("JSONL edge must be a [u, v] pair");
      }
      const double u = pair.items()[0].as_number();
      const double v = pair.items()[1].as_number();
      if (u < 0 || v < 0 || u >= header_.n || v >= header_.n || u == v ||
          u != std::floor(u) || v != std::floor(v)) {
        throw TraceError("JSONL edge endpoint out of range");
      }
      out.push_back(edge_key(static_cast<NodeId>(u), static_cast<NodeId>(v)));
    }
  };
  decode("ins", insertions);
  decode("del", removals);
  // External producers list edges in whatever order they like; the canonical
  // sorted order the base validates (and the checksum folds) is ours to
  // impose.  A no-op for traces our own writer emitted.
  std::sort(insertions.begin(), insertions.end());
  std::sort(removals.begin(), removals.end());
  advance();
}

void JsonlTraceReader::read_trailer(Round rounds_seen, std::uint64_t checksum_seen) {
  if (!pending_valid_ || pending_.find("end") == nullptr) {
    throw TraceError("JSONL trace trailer missing (truncated file)");
  }
  // rounds/checksum are optional in the trailer so external producers can
  // write `{"end":true}` without reimplementing the SplitMix64 fold; when
  // present they are verified against the observed stream.
  const JsonValue* rounds = pending_.find("rounds");
  const JsonValue* checksum = pending_.find("checksum");
  header_.rounds = rounds != nullptr && rounds->type() == JsonValue::Type::kNumber
                       ? static_cast<std::uint32_t>(rounds->as_number())
                       : rounds_seen;
  header_.checksum =
      checksum != nullptr && checksum->type() == JsonValue::Type::kString
          ? parse_hex_u64(checksum->as_string())
          : checksum_seen;
  pending_valid_ = false;
}

// ---------------------------------------------------------------------------
// File factory
// ---------------------------------------------------------------------------

std::unique_ptr<TraceSource> open_trace_source(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary | std::ios::in);
  if (!*file) throw TraceError("cannot open trace file: " + path);
  const int first = file->peek();
  if (first == std::istream::traits_type::eof()) {
    throw TraceError("empty trace file: " + path);
  }
  if (static_cast<char>(first) == trace_format::kMagic[0]) {
    return std::make_unique<BinaryTraceReader>(std::move(file));
  }
  if (static_cast<char>(first) == '{') {
    return std::make_unique<JsonlTraceReader>(std::move(file));
  }
  throw TraceError("unrecognized trace format: " + path);
}

}  // namespace dyngossip
