#include "support/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "support/require.hpp"

namespace pitfalls::support {

BitVec::BitVec(std::size_t n, std::uint64_t value) : BitVec(n) {
  if (!words_.empty()) {
    words_[0] = value;
    clear_padding();
  }
}

namespace {

/// Eight characters starting at `p` as one little-endian word (character i
/// in byte i).
std::uint64_t load8(const char* p) {
  std::uint64_t chunk;
  std::memcpy(&chunk, p, sizeof(chunk));
  if constexpr (std::endian::native == std::endian::big)
    chunk = __builtin_bswap64(chunk);
  return chunk;
}

}  // namespace

std::optional<BitVec> BitVec::try_from_string(std::string_view bits) {
  constexpr std::uint64_t kZeros = 0x3030303030303030ULL;  // "00000000"
  // Gathers bit 0 of byte i into bit 56 + i: the partial products of the
  // eight 0/1 bytes land on distinct bits, so nothing carries.
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  BitVec v(bits.size());
  const char* text = bits.data();
  for (std::size_t w = 0; w < v.words_.size(); ++w) {
    const std::size_t begin = 64 * w;
    const std::size_t end = std::min(bits.size(), begin + 64);
    std::uint64_t word = 0;
    std::size_t i = begin;
    for (; i + 8 <= end; i += 8) {
      const std::uint64_t chunk = load8(text + i) ^ kZeros;  // '0'->0, '1'->1
      if ((chunk & ~0x0101010101010101ULL) != 0) return std::nullopt;
      word |= ((chunk * kGather) >> 56) << (i - begin);
    }
    for (; i < end; ++i) {
      if (text[i] != '0' && text[i] != '1') return std::nullopt;
      word |= static_cast<std::uint64_t>(text[i] - '0') << (i - begin);
    }
    v.words_[w] = word;
  }
  return v;
}

BitVec BitVec::from_string(std::string_view bits) {
  std::optional<BitVec> v = try_from_string(bits);
  PITFALLS_REQUIRE(v.has_value(), "bit string must contain only '0'/'1'");
  return std::move(*v);
}

BitVec BitVec::from_bools(const std::vector<bool>& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) v.set(i, bits[i]);
  return v;
}

void BitVec::check_index(std::size_t i) const {
  PITFALLS_REQUIRE(i < size_, "bit index out of range");
}

void BitVec::check_same_size(const BitVec& other) const {
  PITFALLS_REQUIRE(size_ == other.size_, "BitVec sizes must match");
}

void BitVec::clear_padding() {
  const std::size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty())
    words_.back() &= (~0ULL >> (64 - tail));
}

bool BitVec::get(std::size_t i) const {
  check_index(i);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void BitVec::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % 64);
  if (value)
    words_[i / 64] |= mask;
  else
    words_[i / 64] &= ~mask;
}

void BitVec::flip(std::size_t i) {
  check_index(i);
  words_[i / 64] ^= 1ULL << (i % 64);
}

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (auto word : words_) total += static_cast<std::size_t>(std::popcount(word));
  return total;
}

int BitVec::masked_parity(const BitVec& mask) const {
  check_same_size(mask);
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < words_.size(); ++w)
    acc ^= words_[w] & mask.words_[w];
  return static_cast<int>(std::popcount(acc) & 1);
}

bool BitVec::is_subset_of(const BitVec& other) const {
  check_same_size(other);
  for (std::size_t w = 0; w < words_.size(); ++w)
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  return true;
}

BitVec BitVec::operator^(const BitVec& other) const {
  BitVec out = *this;
  out ^= other;
  return out;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

BitVec BitVec::operator&(const BitVec& other) const {
  check_same_size(other);
  BitVec out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] &= other.words_[w];
  return out;
}

BitVec BitVec::operator|(const BitVec& other) const {
  check_same_size(other);
  BitVec out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] |= other.words_[w];
  return out;
}

BitVec BitVec::operator~() const {
  BitVec out = *this;
  for (auto& word : out.words_) word = ~word;
  out.clear_padding();
  return out;
}

bool BitVec::operator<(const BitVec& other) const {
  if (size_ != other.size_) return size_ < other.size_;
  // Compare most-significant word first for a total order.
  for (std::size_t w = words_.size(); w-- > 0;)
    if (words_[w] != other.words_[w]) return words_[w] < other.words_[w];
  return false;
}

std::vector<std::size_t> BitVec::set_bits() const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(w * 64 + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
  return out;
}

std::uint64_t BitVec::to_uint64() const {
  PITFALLS_REQUIRE(size_ <= 64, "to_uint64 requires at most 64 bits");
  return words_.empty() ? 0 : words_[0];
}

std::string BitVec::to_string() const {
  std::string out(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) out[i] = '1';
  return out;
}

std::size_t BitVec::hash() const {
  std::size_t h = 1469598103934665603ULL ^ size_;
  for (auto word : words_) {
    h ^= static_cast<std::size_t>(word);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace pitfalls::support
