// Content-addressed, on-disk result cache: RunKey → one per-trial row.
//
// Layout (all paths under the cache directory the user names):
//
//   objects/<hh>/<16-hex-digest>.json   one entry per RunKey, fanned out by
//                                       the digest's top byte; written to a
//                                       sibling .tmp-* file and published by
//                                       atomic rename (the TraceWriter
//                                       pattern), so readers never see a
//                                       truncated entry
//
// The object files are the whole cache: `cache info`, `verify` and `gc`
// walk objects/.  Other files in the directory (such as the index an older
// binary wrote) are ignored.
//
// Read contract: corruption-tolerant.  A missing file, unparseable JSON, a
// schema-generation mismatch, a key-text mismatch (digest collision), or a
// stored payload checksum that does not re-fold from the stored fields all
// degrade to a MISS — the caller recomputes, never aborts.  `cache verify`
// walks the store and reports exactly which entries would miss and why.
// A lookup is one open/read/close of the entry plus a full decode: every
// guard above runs on every hit.
//
// Write contract: store() only publishes terminal, machine-independent
// rows.  It refuses a RunStatus::kTimeout row itself (a timeout is a
// property of the host, not of the key), so no caller can forget the
// policy.  A kStalled row is stored: the stall window counts quiet rounds,
// so it is a pure function of the key.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/run_key.hpp"
#include "sim/config.hpp"

namespace dyngossip {

/// One serializable per-trial row: everything run_axes_table / serve need
/// to rebuild their output bit-identically, plus the deterministic payload
/// checksum the cold run folded.
struct CachedResult {
  RunMetrics metrics;
  std::uint64_t k_realized = 0;
  std::uint64_t checksum = 0;  ///< run_payload_checksum(n, k_realized, run)
};

/// Builds the cacheable row of a finished run (folds the checksum).
[[nodiscard]] CachedResult make_cached_result(std::size_t n,
                                              std::uint64_t k_realized,
                                              const RunResult& run);

/// Reconstructs the RunResult a cached row stands for.
[[nodiscard]] RunResult to_run_result(const CachedResult& row);

/// Hit/miss/store counters (process-local, for the CLI summary and the
/// serve rows' `cached` flag plumbing).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
};

/// What `cache verify` found.
struct CacheVerifyReport {
  std::size_t valid = 0;    ///< entries that would be returned on lookup
  std::size_t foreign = 0;  ///< well-formed entries of another schema generation
  std::size_t tmp_files = 0;  ///< unpublished .tmp-* staging files
  std::vector<std::string> corrupt;  ///< "path: reason" per broken entry
};

/// What `cache gc` removed.
struct CacheGcReport {
  std::size_t removed_entries = 0;  ///< valid entries removed (--all only)
  std::size_t removed_corrupt = 0;
  std::size_t removed_tmp = 0;
};

/// `cache info` summary.
struct CacheInfo {
  std::size_t entries = 0;
  std::uint64_t bytes = 0;
  std::size_t tmp_files = 0;
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache rooted at `dir`.  Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ResultCache(std::string dir);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Returns the cached row for `key`, or nullopt (counted as a miss) when
  /// absent or unusable for any reason.  Thread-safe.
  [[nodiscard]] std::optional<CachedResult> lookup(const RunKey& key);

  /// Publishes `row` under `key` (atomic tmp+rename; a row already present
  /// is left untouched — by key purity it is byte-equivalent).  A kTimeout
  /// row publishes nothing and counts no store (see file comment).
  /// Thread-safe.
  void store(const RunKey& key, const CachedResult& row);

  /// Counters accumulated by this handle.  Thread-safe.
  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] CacheInfo info() const;
  [[nodiscard]] CacheVerifyReport verify() const;

  /// Removes .tmp-* staging files and corrupt entries always; with `all`,
  /// every entry.
  CacheGcReport gc(bool all);

  /// On-disk path of `key`'s entry (exposed for tests that corrupt it).
  [[nodiscard]] std::string entry_path(const RunKey& key) const;

 private:
  [[nodiscard]] std::string digest_path(std::uint64_t digest) const;

  std::string dir_;
  std::string objects_dir_;  ///< dir_/objects, as the directory walks spell it
  mutable std::mutex mu_;
  CacheStats stats_;
};

}  // namespace dyngossip
