// Unit and property tests for pitfalls::support.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "support/bitvec.hpp"
#include "support/combinatorics.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls::support;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i)
    if (a() != b()) ++differences;
  EXPECT_GT(differences, 0);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(13), 13u);
}

TEST(Rng, UniformBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_below(0), std::invalid_argument);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(Rng, GaussianScalesMeanAndSigma) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.06);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.06);
}

TEST(Rng, GaussianRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.coin()) ++heads;
  EXPECT_NEAR(heads / 20000.0, 0.5, 0.02);
}

// fill_coins must be exactly the per-bit loop it replaces: the same bits,
// also across word boundaries and partial last words, and the same engine
// position afterwards.
TEST(Rng, FillCoinsMatchesThePerBitLoop) {
  for (const std::size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
    Rng loop_rng(29 + n);
    Rng fill_rng(29 + n);
    for (int draw = 0; draw < 3; ++draw) {
      BitVec expected(n);
      for (std::size_t i = 0; i < n; ++i) expected.set(i, loop_rng.coin());
      BitVec filled = ~BitVec(n);  // every bit must be overwritten
      fill_rng.fill_coins(filled);
      EXPECT_EQ(filled, expected) << "n=" << n << " draw " << draw;
    }
    EXPECT_EQ(fill_rng(), loop_rng()) << "n=" << n;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng rng(21);
  Rng child = rng.split();
  // The child should not replay the parent's stream.
  Rng parent_copy(21);
  (void)parent_copy.split();
  int equal = 0;
  for (int i = 0; i < 32; ++i)
    if (child() == rng()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---------------------------------------------------------------- BitVec

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVec, ConstructFromValue) {
  BitVec v(8, 0b10110010ULL);
  EXPECT_EQ(v.to_string(), "01001101");  // index 0 first
  EXPECT_EQ(v.to_uint64(), 0b10110010ULL);
}

TEST(BitVec, ValueConstructorMasksPadding) {
  BitVec v(4, 0xffULL);
  EXPECT_EQ(v.to_uint64(), 0xfULL);
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(70);
  v.set(69, true);
  EXPECT_TRUE(v.get(69));
  v.flip(69);
  EXPECT_FALSE(v.get(69));
  v.flip(0);
  EXPECT_TRUE(v.get(0));
}

TEST(BitVec, SetWordKeepsPaddingClear) {
  BitVec v(70);
  v.set_word(0, ~0ULL);
  v.set_word(1, 0x3fULL);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_EQ(v.word(1), 0x3fULL);
  EXPECT_THROW(v.set_word(1, 0x40ULL), std::invalid_argument);
  EXPECT_THROW(v.set_word(2, 0), std::invalid_argument);
  EXPECT_EQ(v.word(1), 0x3fULL);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(8);
  EXPECT_THROW(v.get(8), std::invalid_argument);
  EXPECT_THROW(v.set(8, true), std::invalid_argument);
  EXPECT_THROW(v.flip(100), std::invalid_argument);
}

TEST(BitVec, PmOneEncoding) {
  BitVec v = BitVec::from_string("01");
  EXPECT_EQ(v.pm_one(0), +1);
  EXPECT_EQ(v.pm_one(1), -1);
}

TEST(BitVec, FromStringRejectsJunk) {
  EXPECT_THROW(BitVec::from_string("01x"), std::invalid_argument);
}

TEST(BitVec, FromStringMatchesThePerBitLoop) {
  Rng rng(17);
  for (std::size_t n = 0; n <= 130; ++n) {
    std::string bits(n, '0');
    for (char& c : bits) c = rng.coin() ? '1' : '0';
    BitVec expected(n);
    for (std::size_t i = 0; i < n; ++i) expected.set(i, bits[i] == '1');
    EXPECT_EQ(BitVec::from_string(bits), expected) << bits;
    EXPECT_EQ(BitVec::try_from_string(bits), expected) << bits;
    EXPECT_EQ(BitVec::from_string(bits).to_string(), bits);
  }
  EXPECT_TRUE(BitVec::from_string("").empty());
}

TEST(BitVec, FromStringRejectsABadCharacterAtEveryPosition) {
  std::string good(130, '0');
  for (std::size_t i = 0; i < good.size(); i += 3) good[i] = '1';
  // '2' and 'p' differ from '0'/'1' in one bit each; the others cover the
  // control, high and '0'-adjacent bytes.
  for (const char bad : {'2', '/', 'p', 'x', ' ', '\0', '\x80', '\xb1'}) {
    for (std::size_t at = 0; at < good.size(); ++at) {
      std::string bits = good;
      bits[at] = bad;
      EXPECT_THROW(BitVec::from_string(bits), std::invalid_argument) << at;
      EXPECT_FALSE(BitVec::try_from_string(bits).has_value()) << at;
    }
  }
}

TEST(BitVec, PopcountAcrossWords) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.popcount(), 3u);
  EXPECT_EQ(v.parity(), 1);
}

TEST(BitVec, MaskedParityMatchesNaive) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    BitVec x(80);
    BitVec mask(80);
    for (std::size_t i = 0; i < 80; ++i) {
      x.set(i, rng.coin());
      mask.set(i, rng.coin());
    }
    int naive = 0;
    for (std::size_t i = 0; i < 80; ++i)
      if (x.get(i) && mask.get(i)) naive ^= 1;
    EXPECT_EQ(x.masked_parity(mask), naive);
  }
}

TEST(BitVec, SubsetRelation) {
  BitVec a = BitVec::from_string("0110");
  BitVec b = BitVec::from_string("0111");
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
}

TEST(BitVec, BitwiseOperators) {
  BitVec a = BitVec::from_string("0101");
  BitVec b = BitVec::from_string("0011");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((a & b).to_string(), "0001");
  EXPECT_EQ((a | b).to_string(), "0111");
  EXPECT_EQ((~a).to_string(), "1010");
}

TEST(BitVec, ComplementClearsPadding) {
  BitVec v(5);
  BitVec full = ~v;
  EXPECT_EQ(full.popcount(), 5u);
}

TEST(BitVec, SizeMismatchThrows) {
  BitVec a(4);
  BitVec b(5);
  EXPECT_THROW((void)(a ^ b), std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
}

TEST(BitVec, SetBitsAscending) {
  BitVec v(100);
  v.set(3, true);
  v.set(77, true);
  v.set(99, true);
  EXPECT_EQ(v.set_bits(), (std::vector<std::size_t>{3, 77, 99}));
}

TEST(BitVec, OrderingIsTotal) {
  BitVec a = BitVec::from_string("10");
  BitVec b = BitVec::from_string("01");
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(BitVec, HashDistinguishesTypicalValues) {
  BitVec a = BitVec::from_string("0101");
  BitVec b = BitVec::from_string("1010");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), BitVec::from_string("0101").hash());
}

// ------------------------------------------------------- combinatorics

TEST(Combinatorics, BinomialSmallValues) {
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(64, 32), 1832624140942590534ULL);
}

TEST(Combinatorics, BinomialSaturatesOnOverflow) {
  EXPECT_EQ(binomial(1000, 500), UINT64_MAX);
}

TEST(Combinatorics, BinomialSumMatchesManual) {
  EXPECT_EQ(binomial_sum(10, 2), 1u + 10u + 45u);
  EXPECT_EQ(binomial_sum(4, 10), 16u);
}

TEST(Combinatorics, SubsetsOfSizeCountAndOrder) {
  const auto subsets = subsets_of_size(5, 3);
  EXPECT_EQ(subsets.size(), 10u);
  EXPECT_EQ(subsets.front(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(subsets.back(), (std::vector<std::size_t>{2, 3, 4}));
  // All distinct.
  std::set<std::vector<std::size_t>> unique(subsets.begin(), subsets.end());
  EXPECT_EQ(unique.size(), subsets.size());
}

TEST(Combinatorics, SubsetsUpToSizeOrderedByCardinality) {
  const auto subsets = subsets_up_to_size(4, 2);
  EXPECT_EQ(subsets.size(), binomial_sum(4, 2));
  EXPECT_TRUE(subsets.front().empty());
  for (std::size_t i = 1; i < subsets.size(); ++i)
    EXPECT_LE(subsets[i - 1].size(), subsets[i].size());
}

TEST(Combinatorics, SubsetMaskRoundTrip) {
  const BitVec mask = subset_mask(6, {1, 4});
  EXPECT_EQ(mask.to_string(), "010010");
  EXPECT_THROW(subset_mask(3, {5}), std::invalid_argument);
}

TEST(Combinatorics, ForEachSubmaskEnumeratesAll) {
  std::set<std::uint64_t> seen;
  for_each_submask(0b1011ULL, [&](std::uint64_t sub) { seen.insert(sub); });
  EXPECT_EQ(seen.size(), 8u);
  for (auto sub : seen) EXPECT_EQ(sub & ~0b1011ULL, 0u);
}

// -------------------------------------------------------------- stats

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, EmptyStatsThrow) {
  RunningStats s;
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.min(), std::invalid_argument);
}

TEST(Stats, HoeffdingWidthShrinksWithSamples) {
  const double wide = hoeffding_half_width(100, 0.05);
  const double narrow = hoeffding_half_width(10000, 0.05);
  EXPECT_GT(wide, narrow);
  EXPECT_NEAR(narrow, wide / 10.0, 1e-12);
}

TEST(Stats, HoeffdingSampleSizeInvertsWidth) {
  const std::size_t m = hoeffding_sample_size(0.05, 0.01);
  EXPECT_LE(hoeffding_half_width(m, 0.01), 0.05 + 1e-9);
}

TEST(Stats, WilsonIntervalBracketsProportion) {
  const auto iv = wilson_interval(80, 100, 1.96);
  EXPECT_LT(iv.lo, 0.8);
  EXPECT_GT(iv.hi, 0.8);
  EXPECT_GT(iv.lo, 0.69);
  EXPECT_LT(iv.hi, 0.89);
}

TEST(Stats, AccuracyCountsAgreements) {
  EXPECT_DOUBLE_EQ(accuracy({1, -1, 1, -1}, {1, 1, 1, -1}), 0.75);
  EXPECT_THROW(accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW(accuracy({1}, {1, 1}), std::invalid_argument);
}

TEST(Stats, NormalPdfCdfBasics) {
  EXPECT_NEAR(normal_pdf(0.0), 0.39894228, 1e-7);
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
}

TEST(Stats, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8) << "p=" << p;
  }
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

// -------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows) {
  Table t({"n", "accuracy"});
  t.add_row({"16", "71.93"});
  t.add_row({"32", "91.52"});
  const std::string out = t.render("Demo");
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("accuracy"), std::string::npos);
  EXPECT_NE(out.find("91.52"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_or_inf(std::numeric_limits<double>::infinity()),
            ">1e18");
  EXPECT_EQ(Table::fmt_or_inf(1e19), ">1e18");
}

// ------------------------------------------------------------ require

TEST(Require, MacrosThrowTypedExceptions) {
  EXPECT_THROW(PITFALLS_REQUIRE(false, "nope"), std::invalid_argument);
  EXPECT_THROW(PITFALLS_ENSURE(false, "nope"), std::logic_error);
  EXPECT_NO_THROW(PITFALLS_REQUIRE(true, ""));
}

}  // namespace
