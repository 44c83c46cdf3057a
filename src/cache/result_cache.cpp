#include "cache/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/provenance.hpp"
#include "sim/runner/json.hpp"
#include "trace/run_payload.hpp"
#include "trace/trace_format.hpp"

namespace fs = std::filesystem;

namespace dyngossip {

CachedResult make_cached_result(std::size_t n, std::uint64_t k_realized,
                                const RunResult& run) {
  CachedResult row;
  row.metrics = run.metrics;
  row.k_realized = k_realized;
  row.checksum = run_payload_checksum(n, k_realized, run);
  return row;
}

RunResult to_run_result(const CachedResult& row) {
  RunResult run;
  run.metrics = row.metrics;
  run.rounds = row.metrics.rounds;
  run.completed = row.metrics.completed;
  return run;
}

namespace {

[[nodiscard]] std::string digest_hex(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Serializes one entry as a single compact JSON line.  Field order is
/// fixed so identical rows are byte-identical files.
[[nodiscard]] std::string encode_entry(const RunKey& key,
                                       const CachedResult& row) {
  const auto num = [](std::uint64_t v) {
    return JsonValue::number(static_cast<double>(v));
  };
  JsonValue doc = JsonValue::object();
  doc.set("schema", num(key.schema));
  doc.set("key", JsonValue::str(key.canonical_text()));
  doc.set("k_realized", num(row.k_realized));
  doc.set("status", JsonValue::str(run_status_name(row.metrics.status)));
  doc.set("completed", JsonValue::boolean(row.metrics.completed));
  doc.set("coverage", JsonValue::number(row.metrics.coverage));
  doc.set("rounds", num(row.metrics.rounds));
  doc.set("token", num(row.metrics.unicast.token));
  doc.set("completeness", num(row.metrics.unicast.completeness));
  doc.set("request", num(row.metrics.unicast.request));
  doc.set("control", num(row.metrics.unicast.control));
  doc.set("broadcasts", num(row.metrics.broadcasts));
  doc.set("tc", num(row.metrics.tc));
  doc.set("deletions", num(row.metrics.deletions));
  doc.set("learnings", num(row.metrics.learnings));
  doc.set("duplicates", num(row.metrics.duplicate_token_deliveries));
  doc.set("virtual_steps", num(row.metrics.virtual_steps));
  doc.set("checksum", JsonValue::str(checksum_hex(row.checksum)));
  return doc.dump() + "\n";
}

[[nodiscard]] std::uint64_t u64_field(const JsonValue& doc, const char* name) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr || v->type() != JsonValue::Type::kNumber) {
    throw std::runtime_error(std::string("missing numeric field '") + name +
                             "'");
  }
  const double d = v->as_number();
  if (d < 0) {
    throw std::runtime_error(std::string("negative field '") + name + "'");
  }
  return static_cast<std::uint64_t>(d);
}

[[nodiscard]] std::string str_field(const JsonValue& doc, const char* name) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr || v->type() != JsonValue::Type::kString) {
    throw std::runtime_error(std::string("missing string field '") + name +
                             "'");
  }
  return v->as_string();
}

/// A fully decoded, fully validated entry body.
struct DecodedEntry {
  std::uint32_t schema = 0;
  std::string key_text;
  CachedResult row;
};

/// The n embedded in the canonical key text — needed to re-fold the payload
/// checksum when no caller-supplied RunKey exists (verify/gc/index walks).
[[nodiscard]] std::size_t n_from_key_text(const std::string& key_text) {
  const std::string tag = "|n=";
  const std::size_t at = key_text.find(tag);
  if (at == std::string::npos) {
    throw std::runtime_error("key text lacks |n=");
  }
  std::size_t parsed = 0;
  const std::uint64_t n = std::stoull(key_text.substr(at + tag.size()), &parsed);
  if (parsed == 0) throw std::runtime_error("key text |n= is not a number");
  return static_cast<std::size_t>(n);
}

/// Decodes one entry body and proves it internally consistent: every field
/// present and well-typed, the status name known, and the stored payload
/// checksum re-folding exactly from the stored fields (a flipped bit
/// anywhere in the row breaks the fold).  Throws std::runtime_error naming
/// the defect on anything unusable.
[[nodiscard]] DecodedEntry decode_entry(const std::string& body) {
  const JsonValue doc = JsonValue::parse(body);
  DecodedEntry e;
  e.schema = static_cast<std::uint32_t>(u64_field(doc, "schema"));
  e.key_text = str_field(doc, "key");
  CachedResult& row = e.row;
  row.k_realized = u64_field(doc, "k_realized");
  RunStatus status = RunStatus::kRoundCap;
  if (!run_status_from_name(str_field(doc, "status"), &status)) {
    throw std::runtime_error("unknown status name");
  }
  row.metrics.status = status;
  const JsonValue* completed = doc.find("completed");
  if (completed == nullptr || completed->type() != JsonValue::Type::kBool) {
    throw std::runtime_error("missing bool field 'completed'");
  }
  row.metrics.completed = completed->as_bool();
  const JsonValue* coverage = doc.find("coverage");
  if (coverage == nullptr || coverage->type() != JsonValue::Type::kNumber) {
    throw std::runtime_error("missing numeric field 'coverage'");
  }
  row.metrics.coverage = coverage->as_number();
  row.metrics.rounds = static_cast<Round>(u64_field(doc, "rounds"));
  row.metrics.unicast.token = u64_field(doc, "token");
  row.metrics.unicast.completeness = u64_field(doc, "completeness");
  row.metrics.unicast.request = u64_field(doc, "request");
  row.metrics.unicast.control = u64_field(doc, "control");
  row.metrics.broadcasts = u64_field(doc, "broadcasts");
  row.metrics.tc = u64_field(doc, "tc");
  row.metrics.deletions = u64_field(doc, "deletions");
  row.metrics.learnings = u64_field(doc, "learnings");
  row.metrics.duplicate_token_deliveries = u64_field(doc, "duplicates");
  row.metrics.virtual_steps = u64_field(doc, "virtual_steps");

  const std::string sum_text = str_field(doc, "checksum");
  if (sum_text.size() != 16) throw std::runtime_error("malformed checksum");
  std::uint64_t sum = 0;
  for (const char c : sum_text) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (d < 0) throw std::runtime_error("malformed checksum");
    sum = (sum << 4) | static_cast<std::uint64_t>(d);
  }
  row.checksum = sum;

  const RunResult run = to_run_result(row);
  if (run_payload_checksum(n_from_key_text(e.key_text), row.k_realized, run) !=
      sum) {
    throw std::runtime_error("stored checksum does not re-fold from fields");
  }
  return e;
}

/// The whole file: one open, a read per 4 KiB (an entry is ~0.4 KiB), and
/// a close.
[[nodiscard]] std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open");
  std::string body;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      throw std::runtime_error("cannot read");
    }
    if (got == 0) break;
    body.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return body;
}

[[nodiscard]] bool is_tmp_name(const std::string& name) {
  return name.find(".tmp-") != std::string::npos;
}

std::atomic<std::uint64_t> g_tmp_counter{0};

/// Publishes `body` at `path`: written to a sibling .tmp-* file, then
/// renamed over `path`.  Returns false (leaving no file behind) when any
/// step fails.
[[nodiscard]] bool publish_file(const std::string& path, const std::string& body) {
  const std::string tmp =
      path + ".tmp-" + std::to_string(g_tmp_counter.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;  // unwritable cache degrades, never errors
  std::size_t off = 0;
  while (off < body.size()) {
    const ssize_t wrote = ::write(fd, body.data() + off, body.size() - off);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) break;
    off += static_cast<std::size_t>(wrote);
  }
  const bool written = ::close(fd) == 0 && off == body.size();
  if (!written || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir)), objects_dir_((fs::path(dir_) / "objects").string()) {
  std::error_code ec;
  fs::create_directories(objects_dir_, ec);
  if (ec) {
    throw std::runtime_error("cache: cannot create '" + dir_ +
                             "': " + ec.message());
  }
}

std::string ResultCache::entry_path(const RunKey& key) const {
  return digest_path(key.digest());
}

std::string ResultCache::digest_path(std::uint64_t digest) const {
  const std::string hex = digest_hex(digest);
  std::string path = objects_dir_;
  path += '/';
  path.append(hex, 0, 2);
  path += '/';
  path += hex;
  path += ".json";
  return path;
}

std::optional<CachedResult> ResultCache::lookup(const RunKey& key) {
  std::optional<CachedResult> found;
  try {
    const std::string text = key.canonical_text();
    const DecodedEntry e = decode_entry(read_file(digest_path(fnv1a64(text))));
    // Both guards are load-bearing: a foreign-generation entry or a digest
    // collision must miss, never masquerade as this key's row.
    if (e.schema == kCacheSchemaVersion && e.key_text == text) {
      found = e.row;
    }
  } catch (const std::exception&) {
    // Corrupt, truncated, foreign, or absent: a miss by contract.
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (found) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return found;
}

void ResultCache::store(const RunKey& key, const CachedResult& row) {
  // A timeout depends on the machine, not the key: never cached.
  if (row.metrics.status == RunStatus::kTimeout) return;
  const std::string path = entry_path(key);
  std::error_code ec;
  if (fs::exists(path, ec)) return;  // identical by key purity
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (!publish_file(path, encode_entry(key, row))) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

CacheInfo ResultCache::info() const {
  CacheInfo info;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(objects_dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (is_tmp_name(name)) {
      ++info.tmp_files;
    } else if (it->path().extension() == ".json") {
      ++info.entries;
      info.bytes += static_cast<std::uint64_t>(it->file_size(ec));
    }
  }
  return info;
}

CacheVerifyReport ResultCache::verify() const {
  CacheVerifyReport report;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(objects_dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string path = it->path().string();
    if (is_tmp_name(it->path().filename().string())) {
      ++report.tmp_files;
      continue;
    }
    if (it->path().extension() != ".json") continue;
    try {
      const DecodedEntry e = decode_entry(read_file(path));
      if (digest_hex(fnv1a64(e.key_text)) != it->path().stem().string()) {
        report.corrupt.push_back(path + ": digest does not match key text");
      } else if (e.schema != kCacheSchemaVersion) {
        ++report.foreign;
      } else {
        ++report.valid;
      }
    } catch (const std::exception& ex) {
      report.corrupt.push_back(path + ": " + ex.what());
    }
  }
  std::sort(report.corrupt.begin(), report.corrupt.end());
  return report;
}

CacheGcReport ResultCache::gc(bool all) {
  CacheGcReport report;
  std::error_code ec;
  std::vector<fs::path> to_remove;
  for (auto it = fs::recursive_directory_iterator(objects_dir_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path path = it->path();
    if (is_tmp_name(path.filename().string())) {
      to_remove.push_back(path);
      ++report.removed_tmp;
      continue;
    }
    if (path.extension() != ".json") continue;
    bool ok = true;
    try {
      const DecodedEntry e = decode_entry(read_file(path.string()));
      ok = digest_hex(fnv1a64(e.key_text)) == path.stem().string();
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      to_remove.push_back(path);
      ++report.removed_corrupt;
    } else if (all) {
      to_remove.push_back(path);
      ++report.removed_entries;
    }
  }
  for (const fs::path& path : to_remove) fs::remove(path, ec);
  return report;
}

}  // namespace dyngossip
