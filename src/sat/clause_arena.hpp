// Flat clause storage for the CDCL solver: every clause lives in one
// contiguous buffer and is addressed by a 32-bit word offset (ClauseRef).
// Replacing the seed's vector<vector<Lit>> removes a pointer chase per
// clause visit and keeps the watch-list walk cache-resident — the property
// the larger bench_sat_attack instances need.
//
// Layout per clause, in 32-bit words:
//   [0] size          (number of literals)
//   [1] flags         bits 0..27 LBD (saturating), bit 30 learned,
//                     bit 31 deleted
//   [2..2+size)       literals (Lit::index() encoding)
//
// Deletion marks a clause in place: reduce-DB sets its deleted bit and
// erases its watchers at once, so propagation never visits a dead clause.
// The solver compacts the arena (collect()) only at decision level 0,
// remapping every live reference it holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sat/literal.hpp"
#include "support/require.hpp"

namespace pitfalls::sat {

using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kNoClause = 0xffffffffU;

class ClauseArena {
 public:
  static constexpr std::uint32_t kHeaderWords = 2;
  static constexpr std::uint32_t kLbdMask = 0x0fffffffU;
  static constexpr std::uint32_t kLearnedBit = 1U << 30;
  static constexpr std::uint32_t kDeletedBit = 1U << 31;

  /// Append a clause; returns its reference. `size` must be >= 2 (units go
  /// straight onto the trail and never reach the arena).
  ClauseRef alloc(const Lit* lits, std::uint32_t size, bool learned) {
    PITFALLS_REQUIRE(size >= 2, "arena clauses carry at least two literals");
    const std::size_t at = words_.size();
    PITFALLS_ENSURE(at + kHeaderWords + size < kNoClause,
                    "clause arena exceeded 32-bit addressing");
    words_.push_back(size);
    words_.push_back(learned ? kLearnedBit : 0U);
    for (std::uint32_t i = 0; i < size; ++i)
      words_.push_back(lits[i].index());
    return static_cast<ClauseRef>(at);
  }

  std::uint32_t size(ClauseRef c) const { return words_[c]; }
  bool learned(ClauseRef c) const {
    return (words_[c + 1] & kLearnedBit) != 0;
  }
  bool deleted(ClauseRef c) const {
    return (words_[c + 1] & kDeletedBit) != 0;
  }
  std::uint32_t lbd(ClauseRef c) const { return words_[c + 1] & kLbdMask; }

  void set_lbd(ClauseRef c, std::uint32_t lbd) {
    if (lbd > kLbdMask) lbd = kLbdMask;  // saturate, never overflow flags
    words_[c + 1] = (words_[c + 1] & ~kLbdMask) | lbd;
  }

  /// Mark deleted: the words stay in place until the next collect().
  void mark_deleted(ClauseRef c) {
    PITFALLS_ENSURE(!deleted(c), "double clause deletion");
    words_[c + 1] |= kDeletedBit;
    wasted_ += kHeaderWords + size(c);
  }

  Lit lit(ClauseRef c, std::uint32_t i) const {
    return Lit::from_index(words_[c + kHeaderWords + i]);
  }
  void set_lit(ClauseRef c, std::uint32_t i, Lit l) {
    words_[c + kHeaderWords + i] = l.index();
  }
  void swap_lits(ClauseRef c, std::uint32_t i, std::uint32_t j) {
    std::swap(words_[c + kHeaderWords + i], words_[c + kHeaderWords + j]);
  }

  /// Shrink a clause in place (root-false literals stripped at GC). The
  /// freed tail is accounted as waste and reclaimed by the next collect().
  void shrink(ClauseRef c, std::uint32_t new_size) {
    PITFALLS_REQUIRE(new_size >= 2 && new_size <= size(c),
                     "invalid clause shrink");
    wasted_ += size(c) - new_size;
    words_[c] = new_size;
  }

  std::size_t used_words() const { return words_.size(); }
  std::size_t wasted_words() const { return wasted_; }

  void reserve(std::size_t words) { words_.reserve(words); }

  /// Move a live clause from `from` into this arena; returns its new ref.
  ClauseRef relocate(const ClauseArena& from, ClauseRef c) {
    PITFALLS_REQUIRE(!from.deleted(c), "relocating a deleted clause");
    const std::uint32_t n = from.size(c);
    const std::size_t at = words_.size();
    words_.push_back(from.words_[c]);
    words_.push_back(from.words_[c + 1]);
    for (std::uint32_t i = 0; i < n; ++i)
      words_.push_back(from.words_[c + kHeaderWords + i]);
    return static_cast<ClauseRef>(at);
  }

 private:
  std::vector<std::uint32_t> words_;
  std::size_t wasted_ = 0;  // words owned by deleted/shrunk clauses
};

}  // namespace pitfalls::sat
