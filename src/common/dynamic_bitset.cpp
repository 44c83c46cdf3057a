#include "common/dynamic_bitset.hpp"

#include <bit>

namespace dyngossip {

namespace {
[[nodiscard]] constexpr std::size_t words_for(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

constexpr std::uint64_t kOnesPerByte = 0x0101010101010101ull;
constexpr std::uint64_t kHighPerByte = 0x8080808080808080ull;

/// Byte i of the result is the number of set bits in bytes 0..i of `w`
/// (broadword popcount per byte, then a prefix sum by multiplication).
/// The top byte is popcount(w).  Every byte is <= 64, so its high bit is
/// clear.  Plain arithmetic: no library popcount call without -mpopcnt.
[[nodiscard]] constexpr std::uint64_t byte_prefix_counts(
    std::uint64_t w) noexcept {
  std::uint64_t s = w - ((w >> 1) & 0x5555555555555555ull);
  s = (s & 0x3333333333333333ull) + ((s >> 2) & 0x3333333333333333ull);
  s = (s + (s >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return s * kOnesPerByte;
}

/// Position of the set bit of rank `rank` (< popcount) in `w`, given
/// `prefix = byte_prefix_counts(w)`.  Finds the byte broadword (the bytes
/// whose prefix count is <= rank form a prefix of the word), then clears
/// at most 7 lower bits inside it.
[[nodiscard]] constexpr std::size_t select_in_word(std::uint64_t w,
                                                   std::uint64_t prefix,
                                                   std::size_t rank) noexcept {
  const std::uint64_t le =
      (((rank * kOnesPerByte) | kHighPerByte) - prefix) & kHighPerByte;
  const auto byte = static_cast<unsigned>(((le >> 7) * kOnesPerByte) >> 56);
  const unsigned shift = 8 * byte;
  std::size_t in_byte = rank - (((prefix << 8) >> shift) & 0xff);
  std::uint64_t bits = (w >> shift) & 0xff;
  for (; in_byte > 0; --in_byte) bits &= bits - 1;
  return shift + static_cast<std::size_t>(std::countr_zero(bits));
}
}  // namespace

DynamicBitset::DynamicBitset(std::size_t size, bool initially_set)
    : words_(words_for(size), initially_set ? ~0ull : 0ull), size_(size) {
  if (initially_set) {
    count_ = size_;
    trim();
  }
}

void DynamicBitset::resize(std::size_t size) {
  if (size <= size_) return;
  words_.resize(words_for(size), 0ull);
  size_ = size;
}

void DynamicBitset::set_all() noexcept {
  for (auto& w : words_) w = ~0ull;
  count_ = size_;
  trim();
}

void DynamicBitset::reset_all() noexcept {
  for (auto& w : words_) w = 0ull;
  count_ = 0;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  DG_CHECK(size_ == other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
    c += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  count_ = c;
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  DG_CHECK(size_ == other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
    c += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  count_ = c;
  return *this;
}

DynamicBitset& DynamicBitset::subtract(const DynamicBitset& other) {
  DG_CHECK(size_ == other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
    c += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  count_ = c;
  return *this;
}

std::size_t DynamicBitset::union_count(const DynamicBitset& other) const {
  DG_CHECK(size_ == other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    c += static_cast<std::size_t>(std::popcount(words_[i] | other.words_[i]));
  }
  return c;
}

std::size_t DynamicBitset::intersect_count(const DynamicBitset& other) const {
  DG_CHECK(size_ == other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    c += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return c;
}

bool DynamicBitset::contains_all(const DynamicBitset& other) const {
  DG_CHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((other.words_[i] & ~words_[i]) != 0) return false;
  }
  return true;
}

std::size_t DynamicBitset::find_first_unset() const noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != ~0ull) {
      const auto bit = static_cast<std::size_t>(std::countr_one(words_[i]));
      const std::size_t pos = i * 64 + bit;
      return pos < size_ ? pos : size_;
    }
  }
  return size_;
}

std::size_t DynamicBitset::find_next_set(std::size_t from) const noexcept {
  if (from >= size_) return size_;
  std::size_t word = from >> 6;
  std::uint64_t w = words_[word] & (~0ull << (from & 63));
  while (true) {
    if (w != 0) {
      const std::size_t pos = word * 64 + static_cast<std::size_t>(std::countr_zero(w));
      return pos < size_ ? pos : size_;
    }
    if (++word >= words_.size()) return size_;
    w = words_[word];
  }
}

std::size_t DynamicBitset::nth_set(std::size_t rank) const noexcept {
  if (rank >= count_) return size_;
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t prefix = byte_prefix_counts(words_[i]);
    const std::size_t pop = prefix >> 56;
    if (rank >= pop) {
      rank -= pop;
      continue;
    }
    return i * 64 + select_in_word(words_[i], prefix, rank);
  }
}

std::vector<std::size_t> DynamicBitset::unset_positions() const {
  std::vector<std::size_t> out;
  out.reserve(size_ - count_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = ~words_[i];
    while (w != 0) {
      const std::size_t pos = i * 64 + static_cast<std::size_t>(std::countr_zero(w));
      if (pos >= size_) break;
      out.push_back(pos);
      w &= w - 1;
    }
  }
  return out;
}

std::vector<std::size_t> DynamicBitset::set_positions() const {
  std::vector<std::size_t> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = words_[i];
    while (w != 0) {
      const std::size_t pos = i * 64 + static_cast<std::size_t>(std::countr_zero(w));
      out.push_back(pos);
      w &= w - 1;
    }
  }
  return out;
}

void DynamicBitset::trim() noexcept {
  const std::size_t rem = size_ & 63;
  if (!words_.empty() && rem != 0) {
    words_.back() &= (1ull << rem) - 1;
  }
}

}  // namespace dyngossip
