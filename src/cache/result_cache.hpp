// Content-addressed, on-disk result cache: RunKey → one per-trial row.
//
// Layout (all paths under the cache directory the user names):
//
//   objects/<hh>/<16-hex-digest>.json   one entry per RunKey, fanned out by
//                                       the digest's top byte; written to a
//                                       sibling .tmp-* file and published by
//                                       atomic rename (the PR 7 TraceWriter
//                                       pattern), so readers never see a
//                                       truncated entry
//   index.jsonl                         snapshot listing of every entry
//                                       (header line + one line per entry),
//                                       itself written tmp+rename; purely an
//                                       accelerator for `cache info` — the
//                                       object files are the authority and a
//                                       stale or missing index is never an
//                                       error
//
// Read contract: corruption-tolerant.  A missing file, unparseable JSON, a
// schema-generation mismatch, a key-text mismatch (digest collision), or a
// stored payload checksum that does not re-fold from the stored fields all
// degrade to a MISS — the caller recomputes, never aborts.  `cache verify`
// walks the store and reports exactly which entries would miss and why.
// A lookup is one open/read/close of the entry plus a full decode: every
// guard above runs on every hit.
//
// Index memo: the handle remembers the index line of each entry it stored
// or decoded during a write_index walk, with that file's (inode, size,
// mtime).  write_index re-reads only entries whose stamp differs, so a
// rewrite after a few stores costs a directory walk and a stat per entry.
// lookup, verify and gc never use the memo.  Because the index stays
// advisory, the memo may trust a stamp that an in-place rewrite within the
// filesystem's timestamp granularity left unchanged; lookup and verify
// still read such an entry in full.
//
// Write contract: the caller only stores terminal, machine-independent
// rows; RunStatus::kTimeout must bypass write-back (a timeout is a property
// of the host, not of the key) — enforced by cache_should_store below and
// the memoized sweep scheduler.  A kStalled row is stored: the stall
// window counts quiet rounds, so it is a pure function of the key.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
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

/// The write-back policy: only host-independent outcomes are cacheable.
/// kTimeout (wall-clock watchdog) depends on the machine, not the key;
/// kStalled (a count of rounds without a learning) does not.
[[nodiscard]] bool cache_should_store(RunStatus status) noexcept;

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
  bool index_present = false;
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
  /// is left untouched — by key purity it is byte-equivalent).  The caller
  /// is responsible for the cache_should_store policy.  Thread-safe.
  void store(const RunKey& key, const CachedResult& row);

  /// Counters accumulated by this handle.  Thread-safe.
  [[nodiscard]] CacheStats stats() const;

  /// Rewrites index.jsonl from the object store (atomic tmp+rename),
  /// re-reading only entries the index memo does not know under their
  /// current stamp (see file comment).  Thread-safe; rewrites through one
  /// handle are serialized.
  void write_index() const;

  [[nodiscard]] CacheInfo info() const;
  [[nodiscard]] CacheVerifyReport verify() const;

  /// Removes .tmp-* staging files and corrupt entries always; with `all`,
  /// every entry (the index is rewritten afterwards).
  CacheGcReport gc(bool all);

  /// On-disk path of `key`'s entry (exposed for tests that corrupt it).
  [[nodiscard]] std::string entry_path(const RunKey& key) const;

 private:
  /// What identifies one version of an entry file in a directory walk.
  struct FileStamp {
    std::uint64_t inode = 0;
    std::int64_t size = 0;
    std::int64_t mtime_ns = 0;
    bool operator==(const FileStamp&) const = default;
  };
  /// An entry's index line and the stamp of the file it was derived from.
  struct IndexMemo {
    FileStamp stamp;
    std::string line;
  };

  [[nodiscard]] static std::optional<FileStamp> stamp_of(const std::string& path);
  [[nodiscard]] std::string digest_path(std::uint64_t digest) const;

  std::string dir_;
  std::string objects_dir_;  ///< dir_/objects, as the directory walks spell it
  mutable std::mutex mu_;
  CacheStats stats_;
  /// Index memos of entries stored since the last write_index (guarded by
  /// mu_, so stores never wait on a rewrite).
  mutable std::vector<std::pair<std::string, IndexMemo>> stored_;
  /// Serializes write_index and guards index_memo_ (walked path → memo).
  mutable std::mutex index_mu_;
  mutable std::unordered_map<std::string, IndexMemo> index_memo_;
};

}  // namespace dyngossip
