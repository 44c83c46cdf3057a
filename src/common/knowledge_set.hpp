// Hybrid sparse/dense knowledge set.
//
// The knowledge sets of the paper — K_v(t) over k tokens, and the per-node
// bookkeeping sets over n nodes (R_v, S_v of Algorithm 1) — span wildly
// different densities.  Token sets fill up (every node eventually holds all
// k tokens), but the node-universe sets stay tiny compared to n = 10⁵: a
// node announces to / hears from only the neighbors churn ever shows it.  A
// plain DynamicBitset charges Θ(universe/64) words per whole-set operation
// and universe/8 bytes per set regardless — 2 × n/8 bytes × n nodes ≈ 2.5 GB
// of R_v/S_v at n = 10⁵ before the first round runs.
//
// KnowledgeSet keeps the DynamicBitset API (including the zero-allocation
// cursor ranges the Algorithm-1 missing-token walk depends on) but switches
// representation by density:
//   - sparse: a sorted array of element ids — O(|set|) memory and
//     iteration, O(log |set|) membership;
//   - dense: a DynamicBitset — O(1) membership, word-parallel algebra.
// Promotion happens at count >= universe/32 (the memory-parity point: 4-byte
// sparse entries vs universe/8 dense bytes); demotion applies a 4× hysteresis
// so sets oscillating near the threshold do not thrash.  See
// docs/PERFORMANCE.md for the measurement behind the threshold.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/dynamic_bitset.hpp"

namespace dyngossip {

/// Fixed-universe set with a density-adaptive representation and the
/// DynamicBitset API (drop-in on every knowledge path).
class KnowledgeSet {
 public:
  /// Sparse count at which the set switches to the dense representation
  /// (memory parity: count 4-byte entries == universe/8 bitset bytes).  The
  /// floor keeps micro-universes from thrashing representations.
  [[nodiscard]] static constexpr std::size_t promote_threshold(
      std::size_t universe) noexcept {
    return std::max<std::size_t>(universe / 32, 8);
  }

  /// Dense count below which reset() demotes back to sparse (4× hysteresis
  /// under promote_threshold).
  [[nodiscard]] static constexpr std::size_t demote_threshold(
      std::size_t universe) noexcept {
    return promote_threshold(universe) / 4;
  }

  /// Zero-allocation cursor over set or unset positions in increasing
  /// order; the hybrid analogue of DynamicBitset::BitCursor.  Three modes:
  /// a pointer walk over the sparse array, a complement walk against it, or
  /// a word-scan over the dense bitset.  Invalidated by any mutation.
  class Cursor {
   public:
    /// Range-for sentinel.
    struct End {};

    [[nodiscard]] std::size_t operator*() const noexcept {
      if (dense_) return **dense_;
      return mode_ == Mode::kSparseSet ? static_cast<std::size_t>(*it_) : pos_;
    }

    Cursor& operator++() noexcept {
      if (dense_) {
        ++*dense_;
      } else if (mode_ == Mode::kSparseSet) {
        ++it_;
      } else {
        ++pos_;
        settle();
      }
      return *this;
    }

    [[nodiscard]] bool operator==(End) const noexcept {
      if (dense_) return *dense_ == DynamicBitset::BitCursor::End{};
      return mode_ == Mode::kSparseSet ? it_ == end_ : pos_ >= universe_;
    }

   private:
    friend class KnowledgeSet;
    enum class Mode : std::uint8_t { kSparseSet, kSparseUnset, kDense };

    Cursor(const std::uint32_t* it, const std::uint32_t* end, std::size_t universe,
           Mode mode) noexcept
        : mode_(mode), it_(it), end_(end), universe_(universe) {
      if (mode_ == Mode::kSparseUnset) settle();
    }

    explicit Cursor(DynamicBitset::BitCursor cursor) noexcept
        : mode_(Mode::kDense), dense_(cursor) {}

    /// Complement walk: skip positions present in the sorted array.
    void settle() noexcept {
      while (it_ != end_ && static_cast<std::size_t>(*it_) == pos_) {
        ++it_;
        ++pos_;
      }
    }

    Mode mode_;
    const std::uint32_t* it_ = nullptr;
    const std::uint32_t* end_ = nullptr;
    std::size_t universe_ = 0;
    std::size_t pos_ = 0;
    std::optional<DynamicBitset::BitCursor> dense_;
  };

  /// Lightweight range over set or unset positions (see Cursor).
  class PositionRange {
   public:
    [[nodiscard]] Cursor begin() const noexcept { return set_->cursor(invert_); }
    [[nodiscard]] Cursor::End end() const noexcept { return {}; }

   private:
    friend class KnowledgeSet;
    PositionRange(const KnowledgeSet* set, bool invert) noexcept
        : set_(set), invert_(invert) {}

    const KnowledgeSet* set_;
    bool invert_;
  };

  /// Empty set over an empty universe.
  KnowledgeSet() = default;

  /// Set over universe [0, size), initially all false (or all true).
  explicit KnowledgeSet(std::size_t size, bool initially_set = false);

  /// Universe size (number of addressable positions).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Grows the universe to `size`; new positions are absent.  No-op if the
  /// universe is already at least that large.
  void resize(std::size_t size);

  /// Membership test.
  [[nodiscard]] bool test(std::size_t pos) const noexcept {
    DG_DCHECK(pos < size_);
    if (dense_) return bits_.test(pos);
    return std::binary_search(elems_.begin(), elems_.end(),
                              static_cast<std::uint32_t>(pos));
  }

  /// Inserts pos; returns true iff newly inserted.  May promote to dense.
  bool set(std::size_t pos);

  /// Removes pos; returns true iff previously present.  May demote to
  /// sparse (hysteresis, see demote_threshold).
  bool reset(std::size_t pos);

  /// Fills the universe (dense afterwards).
  void set_all();

  /// Empties the set (sparse afterwards).
  void reset_all();

  /// Number of elements (O(1)).
  [[nodiscard]] std::size_t count() const noexcept {
    return dense_ ? bits_.count() : elems_.size();
  }

  /// True iff empty.
  [[nodiscard]] bool none() const noexcept { return count() == 0; }

  /// True iff the whole universe is present.
  [[nodiscard]] bool all() const noexcept { return count() == size_; }

  /// True iff currently in the dense representation (tests/benches).
  [[nodiscard]] bool is_dense() const noexcept { return dense_; }

  /// In-place union.  Requires equal universe sizes.
  KnowledgeSet& operator|=(const KnowledgeSet& other);

  /// In-place intersection.  Requires equal universe sizes.
  KnowledgeSet& operator&=(const KnowledgeSet& other);

  /// In-place difference (this \ other).  Requires equal universe sizes.
  KnowledgeSet& subtract(const KnowledgeSet& other);

  /// |this ∪ other| without materializing the union.
  [[nodiscard]] std::size_t union_count(const KnowledgeSet& other) const;

  /// |this ∩ other| without materializing the intersection.
  [[nodiscard]] std::size_t intersect_count(const KnowledgeSet& other) const;

  /// True iff this set contains every element of `other`.
  [[nodiscard]] bool contains_all(const KnowledgeSet& other) const;

  /// First absent position, or size() if the set is full.
  [[nodiscard]] std::size_t find_first_unset() const noexcept;

  /// First present position >= from, or size() if none.
  [[nodiscard]] std::size_t find_next_set(std::size_t from) const noexcept;

  /// The rank-th present position (0-based, increasing order), or size() if
  /// rank >= count().  O(1) sparse; one popcount per word when dense.
  [[nodiscard]] std::size_t nth_set(std::size_t rank) const noexcept {
    if (dense_) return bits_.nth_set(rank);
    return rank < elems_.size() ? static_cast<std::size_t>(elems_[rank]) : size_;
  }

  /// All absent positions in increasing order.  Allocates; hot paths
  /// iterate unset_bits().
  [[nodiscard]] std::vector<std::size_t> unset_positions() const;

  /// All present positions in increasing order.  Allocates; hot paths
  /// iterate set_bits().
  [[nodiscard]] std::vector<std::size_t> set_positions() const;

  /// Allocation-free cursor range over present positions, increasing order.
  [[nodiscard]] PositionRange set_bits() const noexcept {
    return PositionRange(this, /*invert=*/false);
  }

  /// Allocation-free cursor range over absent positions, increasing order.
  [[nodiscard]] PositionRange unset_bits() const noexcept {
    return PositionRange(this, /*invert=*/true);
  }

  /// Structural equality (same universe, same members) — representation
  /// does not matter (hysteresis can leave equal sets in different reps).
  friend bool operator==(const KnowledgeSet& a, const KnowledgeSet& b);

 private:
  [[nodiscard]] Cursor cursor(bool invert) const noexcept {
    if (dense_) {
      return Cursor((invert ? bits_.unset_bits() : bits_.set_bits()).begin());
    }
    if (!invert) {
      return Cursor(elems_.data(), elems_.data() + elems_.size(), size_,
                    Cursor::Mode::kSparseSet);
    }
    return Cursor(elems_.data(), elems_.data() + elems_.size(), size_,
                  Cursor::Mode::kSparseUnset);
  }

  /// Sparse → dense; frees the array.
  void promote();

  /// Dense → sparse; frees the bitset.
  void demote();

  void maybe_promote() {
    if (!dense_ && elems_.size() >= promote_threshold(size_)) promote();
  }

  void maybe_demote() {
    if (dense_ && bits_.count() < demote_threshold(size_)) demote();
  }

  std::size_t size_ = 0;
  bool dense_ = false;
  std::vector<std::uint32_t> elems_;  ///< sparse: sorted unique element ids
  DynamicBitset bits_;                ///< dense payload (empty when sparse)
};

}  // namespace dyngossip
