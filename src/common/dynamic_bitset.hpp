// Runtime-sized bitset.
//
// Token-knowledge sets K_v(t) (Section 2) and missing-token bookkeeping of
// the unicast algorithms are sets over a universe of k tokens with
// k up to Θ(n²); a packed bitset keeps membership tests O(1) and whole-set
// operations word-parallel, which is what makes the Section-2 free-edge
// adversary (Θ(n²) edge classifications per round) tractable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace dyngossip {

/// Fixed-universe dynamic bitset with word-parallel set algebra.
class DynamicBitset {
 public:
  /// Zero-allocation word-scan cursor over bit positions, in increasing
  /// order.  Replaces the materialized vectors of set_positions() /
  /// unset_positions() on the per-round hot paths (Algorithm 1's
  /// missing-token selection walks this cursor instead of building the full
  /// b_1 < b_2 < ... list every round).  Invalidated by any mutation of the
  /// underlying bitset.
  class BitCursor {
   public:
    /// Range-for sentinel.
    struct End {};

    [[nodiscard]] std::size_t operator*() const noexcept {
      return word_index_ * 64 + static_cast<std::size_t>(std::countr_zero(word_));
    }

    BitCursor& operator++() noexcept {
      word_ &= word_ - 1;  // clear lowest set bit
      settle();
      return *this;
    }

    [[nodiscard]] bool operator==(End) const noexcept {
      return word_index_ >= num_words_;
    }

   private:
    friend class DynamicBitset;

    BitCursor(const std::uint64_t* words, std::size_t num_words, std::size_t size,
              bool invert) noexcept
        : words_(words), num_words_(num_words), size_(size), invert_(invert) {
      word_ = num_words_ > 0 ? load(0) : 0;
      settle();
    }

    [[nodiscard]] std::uint64_t load(std::size_t i) const noexcept {
      std::uint64_t w = invert_ ? ~words_[i] : words_[i];
      const std::size_t rem = size_ & 63;
      if (i + 1 == num_words_ && rem != 0) w &= (std::uint64_t{1} << rem) - 1;
      return w;
    }

    void settle() noexcept {
      while (word_ == 0) {
        if (++word_index_ >= num_words_) return;
        word_ = load(word_index_);
      }
    }

    const std::uint64_t* words_;
    std::size_t num_words_;
    std::size_t size_;
    bool invert_;
    std::size_t word_index_ = 0;
    std::uint64_t word_ = 0;
  };

  /// Lightweight range over set or unset positions (see BitCursor).
  class PositionRange {
   public:
    [[nodiscard]] BitCursor begin() const noexcept {
      return BitCursor(words_, num_words_, size_, invert_);
    }
    [[nodiscard]] BitCursor::End end() const noexcept { return {}; }

   private:
    friend class DynamicBitset;
    PositionRange(const std::uint64_t* words, std::size_t num_words,
                  std::size_t size, bool invert) noexcept
        : words_(words), num_words_(num_words), size_(size), invert_(invert) {}

    const std::uint64_t* words_;
    std::size_t num_words_;
    std::size_t size_;
    bool invert_;
  };

  /// Empty set over an empty universe.
  DynamicBitset() = default;

  /// Set over universe [0, size), initially all false (or all true).
  explicit DynamicBitset(std::size_t size, bool initially_set = false);

  /// Universe size (number of addressable bits).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Grows the universe to `size` bits; new bits are false.  No-op if the
  /// universe is already at least that large.
  void resize(std::size_t size);

  /// Membership test.
  [[nodiscard]] bool test(std::size_t pos) const noexcept {
    DG_DCHECK(pos < size_);
    return (words_[pos >> 6] >> (pos & 63)) & 1u;
  }

  /// Inserts pos; returns true iff the bit was newly set.
  bool set(std::size_t pos) noexcept {
    DG_DCHECK(pos < size_);
    const std::uint64_t mask = 1ull << (pos & 63);
    std::uint64_t& w = words_[pos >> 6];
    const bool fresh = (w & mask) == 0;
    w |= mask;
    count_ += fresh ? 1 : 0;
    return fresh;
  }

  /// Removes pos; returns true iff the bit was previously set.
  bool reset(std::size_t pos) noexcept {
    DG_DCHECK(pos < size_);
    const std::uint64_t mask = 1ull << (pos & 63);
    std::uint64_t& w = words_[pos >> 6];
    const bool was = (w & mask) != 0;
    w &= ~mask;
    count_ -= was ? 1 : 0;
    return was;
  }

  /// Sets every bit in the universe.
  void set_all() noexcept;

  /// Clears every bit.
  void reset_all() noexcept;

  /// Number of set bits (cached; O(1)).
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// True iff no bit is set.
  [[nodiscard]] bool none() const noexcept { return count_ == 0; }

  /// True iff every bit in the universe is set.
  [[nodiscard]] bool all() const noexcept { return count_ == size_; }

  /// In-place union.  Requires equal universe sizes.
  DynamicBitset& operator|=(const DynamicBitset& other);

  /// In-place intersection.  Requires equal universe sizes.
  DynamicBitset& operator&=(const DynamicBitset& other);

  /// In-place difference (this \ other).  Requires equal universe sizes.
  DynamicBitset& subtract(const DynamicBitset& other);

  /// |this ∪ other| without materializing the union.
  [[nodiscard]] std::size_t union_count(const DynamicBitset& other) const;

  /// |this ∩ other| without materializing the intersection.
  [[nodiscard]] std::size_t intersect_count(const DynamicBitset& other) const;

  /// True iff this set contains every element of `other`.
  [[nodiscard]] bool contains_all(const DynamicBitset& other) const;

  /// Index of the first unset bit, or size() if the set is full.
  [[nodiscard]] std::size_t find_first_unset() const noexcept;

  /// Index of the first set bit at position >= from, or size() if none.
  [[nodiscard]] std::size_t find_next_set(std::size_t from) const noexcept;

  /// Position of the rank-th set bit (0-based, increasing order), or size()
  /// if rank >= count().  One broadword popcount per word up to the one
  /// holding it, then a constant-time select inside that word.
  [[nodiscard]] std::size_t nth_set(std::size_t rank) const noexcept;

  /// All unset positions in increasing order (the "missing token" list of
  /// Algorithm 1, line 7).  Allocates; hot paths iterate unset_bits().
  [[nodiscard]] std::vector<std::size_t> unset_positions() const;

  /// All set positions in increasing order.  Allocates; hot paths iterate
  /// set_bits().
  [[nodiscard]] std::vector<std::size_t> set_positions() const;

  /// Allocation-free cursor range over set positions, increasing order.
  [[nodiscard]] PositionRange set_bits() const noexcept {
    return PositionRange(words_.data(), words_.size(), size_, /*invert=*/false);
  }

  /// Allocation-free cursor range over unset positions, increasing order.
  [[nodiscard]] PositionRange unset_bits() const noexcept {
    return PositionRange(words_.data(), words_.size(), size_, /*invert=*/true);
  }

  /// Structural equality (same universe, same members).
  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  /// Zeroes bits beyond the universe in the last word.
  void trim() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

}  // namespace dyngossip
