// Fixed-length dynamic bit vector used for challenges, circuit input
// patterns, monomial supports and CNF assignments.
//
// The paper's encoding convention chi(0) := +1, chi(1) := -1 is provided by
// pm_one(); all Fourier-analytic code uses that convention.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/require.hpp"

namespace pitfalls::support {

class BitVec {
 public:
  BitVec() = default;

  /// All-zero vector of n bits.
  explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Vector of n bits whose low bits are taken from `value` (bit i of value
  /// becomes bit i of the vector). Bits past 63 are zero.
  BitVec(std::size_t n, std::uint64_t value);

  /// Parse from a string of '0'/'1' characters, index 0 first. Throws
  /// std::invalid_argument on any other character.
  static BitVec from_string(std::string_view bits);

  /// from_string without the throw: nullopt on any character other than
  /// '0'/'1'. Checks and packs eight characters per step.
  static std::optional<BitVec> try_from_string(std::string_view bits);

  /// From a vector of booleans.
  static BitVec from_bools(const std::vector<bool>& bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// +1 for a 0-bit, -1 for a 1-bit (the paper's chi encoding).
  int pm_one(std::size_t i) const { return get(i) ? -1 : +1; }

  /// Number of set bits.
  std::size_t popcount() const;

  /// XOR of all bits (0 or 1).
  int parity() const { return static_cast<int>(popcount() & 1); }

  /// Parity of the AND with `mask` — i.e. chi_S(x) sign exponent where S is
  /// the support of `mask`. Sizes must match.
  int masked_parity(const BitVec& mask) const;

  /// True if every set bit of *this is also set in `other` (subset of
  /// supports). Sizes must match.
  bool is_subset_of(const BitVec& other) const;

  BitVec operator^(const BitVec& other) const;
  BitVec operator&(const BitVec& other) const;
  BitVec operator|(const BitVec& other) const;
  BitVec& operator^=(const BitVec& other);
  BitVec operator~() const;

  bool operator==(const BitVec& other) const = default;

  /// Lexicographic order on (size, bits) — usable as a map key.
  bool operator<(const BitVec& other) const;

  /// Indices of set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Low 64 bits as an integer (requires size() <= 64).
  std::uint64_t to_uint64() const;

  /// '0'/'1' string, index 0 first.
  std::string to_string() const;

  /// FNV-style hash over the payload words.
  std::size_t hash() const;

  /// Number of 64-bit payload words ((size + 63) / 64).
  std::size_t num_words() const { return words_.size(); }

  /// Raw payload word `w` (bits [64w, 64w+63]; padding bits past size() are
  /// always zero). Fast path for bit-sliced batch evaluation — unlike get(),
  /// this stays inline so plane construction avoids a call per bit.
  std::uint64_t word(std::size_t w) const {
    PITFALLS_REQUIRE(w < words_.size(), "word index out of range");
    return words_[w];
  }

  /// Overwrite payload word `w` — the store side of word(). Bits of `value`
  /// past size() must be zero, so the padding invariant keeps holding.
  void set_word(std::size_t w, std::uint64_t value) {
    PITFALLS_REQUIRE(w < words_.size(), "word index out of range");
    PITFALLS_REQUIRE(64 * w + static_cast<std::size_t>(std::bit_width(value)) <=
                         size_,
                     "set_word must leave the padding bits zero");
    words_[w] = value;
  }

 private:
  void check_index(std::size_t i) const;
  void check_same_size(const BitVec& other) const;
  void clear_padding();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& v) const { return v.hash(); }
};

}  // namespace pitfalls::support
