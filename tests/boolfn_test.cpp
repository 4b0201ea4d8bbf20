// Unit and property tests for pitfalls::boolfn: truth tables, the Fourier
// transform, LTFs, ANF polynomials and influence machinery, plus the seed
// loops the optimized Fourier kernels must match bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "boolfn/anf.hpp"
#include "boolfn/boolean_function.hpp"
#include "boolfn/fourier.hpp"
#include "boolfn/influence.hpp"
#include "boolfn/ltf.hpp"
#include "boolfn/truth_table.hpp"
#include "puf/crp.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/combinatorics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls::boolfn;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

FunctionView parity_fn(std::size_t n) {
  return FunctionView(
      n, [](const BitVec& x) { return x.parity() ? -1 : +1; }, "parity");
}

FunctionView dictator_fn(std::size_t n, std::size_t i) {
  return FunctionView(
      n, [i](const BitVec& x) { return x.pm_one(i); }, "dictator");
}

TruthTable random_table(std::size_t n, Rng& rng) {
  TruthTable t(n);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    t.set(row, rng.coin() ? +1 : -1);
  return t;
}

// ----------------------------------------------------------- TruthTable

TEST(TruthTable, ConstantByDefault) {
  TruthTable t(3);
  EXPECT_EQ(t.num_rows(), 8u);
  for (std::uint64_t r = 0; r < 8; ++r) EXPECT_EQ(t.at(r), +1);
  EXPECT_DOUBLE_EQ(t.bias(), 1.0);
}

TEST(TruthTable, FromFunctionRoundTrip) {
  const auto parity = parity_fn(4);
  const TruthTable t = TruthTable::from_function(parity);
  for (std::uint64_t r = 0; r < t.num_rows(); ++r) {
    const BitVec x(4, r);
    EXPECT_EQ(t.eval_pm(x), parity.eval_pm(x));
  }
}

TEST(TruthTable, FromValuesValidates) {
  EXPECT_THROW(TruthTable::from_values(2, {1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_values(1, {1, 2}), std::invalid_argument);
  const TruthTable t = TruthTable::from_values(1, {1, -1});
  EXPECT_EQ(t.at(1), -1);
}

TEST(TruthTable, DistanceCountsDisagreements) {
  const TruthTable a = TruthTable::from_values(2, {1, 1, 1, 1});
  const TruthTable b = TruthTable::from_values(2, {1, -1, 1, -1});
  EXPECT_DOUBLE_EQ(a.distance(b), 0.5);
  EXPECT_DOUBLE_EQ(a.distance(a), 0.0);
}

TEST(TruthTable, BiasOfParityIsZero) {
  EXPECT_DOUBLE_EQ(TruthTable::from_function(parity_fn(5)).bias(), 0.0);
}

TEST(TruthTable, ArityMismatchThrows) {
  TruthTable t(3);
  EXPECT_THROW(t.eval_pm(BitVec(4)), std::invalid_argument);
}

// -------------------------------------------------------------- Fourier

TEST(Fourier, ConstantFunctionSpectrum) {
  const auto spec = FourierSpectrum::of(TruthTable(4));
  EXPECT_DOUBLE_EQ(spec.coefficient(0), 1.0);
  for (std::uint64_t s = 1; s < 16; ++s)
    EXPECT_DOUBLE_EQ(spec.coefficient(s), 0.0);
}

TEST(Fourier, ParityConcentratesOnFullSet) {
  const auto spec =
      FourierSpectrum::of(TruthTable::from_function(parity_fn(5)));
  EXPECT_DOUBLE_EQ(spec.coefficient((1u << 5) - 1), 1.0);
  EXPECT_DOUBLE_EQ(spec.weight_at_degree(5), 1.0);
  EXPECT_DOUBLE_EQ(spec.weight_up_to_degree(4), 0.0);
}

TEST(Fourier, DictatorConcentratesOnSingleton) {
  const auto spec =
      FourierSpectrum::of(TruthTable::from_function(dictator_fn(4, 2)));
  EXPECT_DOUBLE_EQ(spec.coefficient(1u << 2), 1.0);
  EXPECT_DOUBLE_EQ(spec.weight_at_degree(1), 1.0);
}

class FourierProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FourierProperty, ParsevalHoldsForRandomFunctions) {
  Rng rng(100 + GetParam());
  const TruthTable t = random_table(GetParam(), rng);
  const auto spec = FourierSpectrum::of(t);
  EXPECT_NEAR(spec.total_weight(), 1.0, 1e-9);
}

TEST_P(FourierProperty, WhtMatchesNaiveDefinition) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  const TruthTable t = random_table(n, rng);
  const auto spec = FourierSpectrum::of(t);
  // Check a handful of subsets against E[f chi_S] computed directly.
  for (std::uint64_t mask : {0ULL, 1ULL, 3ULL, (1ULL << n) - 1}) {
    double sum = 0.0;
    for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
      const int chi = (std::popcount(row & mask) & 1) ? -1 : +1;
      sum += t.at(row) * chi;
    }
    EXPECT_NEAR(spec.coefficient(mask),
                sum / static_cast<double>(t.num_rows()), 1e-12);
  }
}

TEST_P(FourierProperty, InversionViaTruncatedSign) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  const TruthTable t = random_table(n, rng);
  // Truncating at full degree must reproduce the function exactly.
  const TruthTable back = FourierSpectrum::of(t).truncated_sign(n);
  EXPECT_DOUBLE_EQ(t.distance(back), 0.0);
}

INSTANTIATE_TEST_SUITE_P(SmallArities, FourierProperty,
                         ::testing::Values(2, 3, 4, 6, 8, 10));

TEST(Fourier, NoiseSensitivityExactMatchesSampled) {
  Rng rng(42);
  const auto parity = parity_fn(6);
  const TruthTable t = TruthTable::from_function(parity);
  const auto spec = FourierSpectrum::of(t);
  for (double eps : {0.05, 0.1, 0.25}) {
    const double exact = spec.noise_sensitivity(eps);
    const double sampled = estimate_noise_sensitivity(parity, eps, 40000, rng);
    EXPECT_NEAR(exact, sampled, 0.01) << "eps=" << eps;
  }
}

TEST(Fourier, NoiseSensitivityOfParityFormula) {
  // For parity on n bits NS_eps = (1 - (1-2eps)^n)/2.
  const auto spec =
      FourierSpectrum::of(TruthTable::from_function(parity_fn(7)));
  for (double eps : {0.01, 0.1, 0.3}) {
    const double expected = 0.5 * (1.0 - std::pow(1.0 - 2.0 * eps, 7));
    EXPECT_NEAR(spec.noise_sensitivity(eps), expected, 1e-12);
  }
}

TEST(Fourier, LtfNoiseSensitivityIsOrderSqrtEps) {
  // Klivans–O'Donnell–Servedio: NS_eps(LTF) = O(sqrt(eps)). Check the
  // constant empirically for majority-like random LTFs.
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const Ltf ltf = Ltf::random(12, rng);
    const auto spec = FourierSpectrum::of(TruthTable::from_function(ltf));
    for (double eps : {0.01, 0.04, 0.09}) {
      EXPECT_LE(spec.noise_sensitivity(eps), 1.5 * std::sqrt(eps))
          << "trial=" << trial << " eps=" << eps;
    }
  }
}

TEST(Fourier, EstimatedCoefficientConvergesToExact) {
  Rng rng(55);
  const Ltf ltf = Ltf::random(8, rng);
  const auto spec = FourierSpectrum::of(TruthTable::from_function(ltf));
  BitVec subset(8);
  subset.set(3, true);
  const double estimate = estimate_coefficient(ltf, subset, 60000, rng);
  EXPECT_NEAR(estimate, spec.coefficient(1u << 3), 0.02);
}

TEST(Fourier, BatchEstimationMatchesDataEstimation) {
  Rng rng(66);
  const auto parity = parity_fn(5);
  std::vector<BitVec> subsets{BitVec(5, 0), BitVec(5, 0b11111)};
  const auto coeffs = estimate_coefficients(parity, subsets, 5000, rng);
  EXPECT_NEAR(coeffs[0], 0.0, 0.05);
  EXPECT_NEAR(coeffs[1], 1.0, 1e-12);
}

TEST(Fourier, EstimateBiasOfConstant) {
  Rng rng(1);
  const FunctionView one(6, [](const BitVec&) { return +1; }, "one");
  EXPECT_DOUBLE_EQ(estimate_bias(one, 100, rng), 1.0);
}

// ------------------------------------------------------------------ Ltf

TEST(Ltf, EvalMatchesMarginSign) {
  const Ltf ltf({1.0, -2.0, 0.5}, 0.25);
  Rng rng(5);
  for (int trial = 0; trial < 64; ++trial) {
    BitVec x(3);
    for (std::size_t i = 0; i < 3; ++i) x.set(i, rng.coin());
    EXPECT_EQ(ltf.eval_pm(x), ltf.margin(x) < 0 ? -1 : +1);
  }
}

TEST(Ltf, SignOfZeroIsPlusOne) {
  const Ltf ltf({1.0, 1.0}, 2.0);
  const BitVec both_zero(2);  // x = (+1, +1), margin = 0
  EXPECT_EQ(ltf.eval_pm(both_zero), +1);
}

TEST(Ltf, RejectsEmptyWeights) {
  EXPECT_THROW(Ltf({}, 0.0), std::invalid_argument);
}

TEST(Ltf, RandomIsBalancedOnAverage) {
  Rng rng(10);
  double total_bias = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Ltf ltf = Ltf::random(10, rng);
    total_bias += TruthTable::from_function(ltf).bias();
  }
  EXPECT_NEAR(total_bias / 10.0, 0.0, 0.25);
}

TEST(Ltf, DecayingWeightsActLikeJunta) {
  Rng rng(20);
  const Ltf ltf = Ltf::random_decaying(14, 0.4, rng);
  // Flipping a deep tail variable should almost never change the output.
  const double tail_influence = estimate_influence(ltf, 13, 20000, rng);
  const double head_influence = estimate_influence(ltf, 0, 20000, rng);
  EXPECT_LT(tail_influence, 0.01);
  EXPECT_GT(head_influence, 0.05);
}

TEST(Ltf, WeightNormIsEuclidean) {
  const Ltf ltf({3.0, 4.0}, 1.0);
  EXPECT_DOUBLE_EQ(ltf.weight_norm(), 5.0);
}

// ------------------------------------------------------------------ Anf

TEST(Anf, ZeroPolynomialIsConstantPlusOne) {
  const AnfPolynomial p(4);
  EXPECT_EQ(p.sparsity(), 0u);
  EXPECT_EQ(p.eval_pm(BitVec(4, 0b1010)), +1);
}

TEST(Anf, SingleMonomialIsConjunction) {
  const AnfPolynomial p(4, {BitVec::from_string("1100")});
  EXPECT_TRUE(p.eval_f2(BitVec::from_string("1100")));
  EXPECT_TRUE(p.eval_f2(BitVec::from_string("1111")));
  EXPECT_FALSE(p.eval_f2(BitVec::from_string("1000")));
}

TEST(Anf, ConstantTermMonomial) {
  const AnfPolynomial p(3, {BitVec(3)});
  EXPECT_TRUE(p.eval_f2(BitVec(3)));  // empty monomial = 1 everywhere
  EXPECT_TRUE(p.eval_f2(BitVec(3, 0b111)));
}

TEST(Anf, DuplicateMonomialsCancel) {
  const BitVec m = BitVec::from_string("101");
  const AnfPolynomial p(3, {m, m});
  EXPECT_EQ(p.sparsity(), 0u);
}

TEST(Anf, MoebiusRoundTrip) {
  Rng rng(33);
  for (std::size_t n : {2, 4, 6, 8}) {
    const TruthTable t = random_table(n, rng);
    const AnfPolynomial p = AnfPolynomial::from_truth_table(t);
    EXPECT_DOUBLE_EQ(TruthTable::from_function(p).distance(t), 0.0)
        << "n=" << n;
  }
}

TEST(Anf, ParityHasAllSingletons) {
  const AnfPolynomial p =
      AnfPolynomial::from_truth_table(TruthTable::from_function(parity_fn(5)));
  EXPECT_EQ(p.sparsity(), 5u);
  EXPECT_EQ(p.degree(), 1u);
}

TEST(Anf, XorOperatorMatchesPointwiseXor) {
  Rng rng(44);
  const TruthTable ta = random_table(5, rng);
  const TruthTable tb = random_table(5, rng);
  const AnfPolynomial pa = AnfPolynomial::from_truth_table(ta);
  const AnfPolynomial pb = AnfPolynomial::from_truth_table(tb);
  const AnfPolynomial px = pa ^ pb;
  for (std::uint64_t row = 0; row < ta.num_rows(); ++row) {
    const BitVec x(5, row);
    EXPECT_EQ(px.eval_f2(x), pa.eval_f2(x) != pb.eval_f2(x));
  }
}

TEST(Anf, RandomRespectsSparsityAndDegree) {
  Rng rng(50);
  const AnfPolynomial p = AnfPolynomial::random(12, 7, 3, rng);
  EXPECT_EQ(p.sparsity(), 7u);
  EXPECT_LE(p.degree(), 3u);
  EXPECT_GE(p.degree(), 1u);
}

TEST(Anf, ToggleInsertsAndRemoves) {
  AnfPolynomial p(3);
  const BitVec m = BitVec::from_string("110");
  p.toggle_monomial(m);
  EXPECT_TRUE(p.has_monomial(m));
  p.toggle_monomial(m);
  EXPECT_FALSE(p.has_monomial(m));
}

// ------------------------------------------------------------ Influence

TEST(Influence, ParityHasFullInfluences) {
  const TruthTable t = TruthTable::from_function(parity_fn(4));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(influence(t, i), 1.0);
  EXPECT_DOUBLE_EQ(total_influence(t), 4.0);
}

TEST(Influence, DictatorIsOneJunta) {
  const TruthTable t = TruthTable::from_function(dictator_fn(5, 3));
  EXPECT_EQ(relevant_variables(t), (std::vector<std::size_t>{3}));
  EXPECT_TRUE(is_junta(t, 1));
  EXPECT_FALSE(is_junta(t, 0));
}

TEST(Influence, SampledMatchesExact) {
  Rng rng(60);
  const Ltf ltf = Ltf::random(8, rng);
  const TruthTable t = TruthTable::from_function(ltf);
  for (std::size_t i : {0u, 4u, 7u}) {
    EXPECT_NEAR(estimate_influence(ltf, i, 30000, rng), influence(t, i), 0.02);
  }
}

TEST(Influence, RestrictToKeepsSubfunction) {
  // f = x0 XOR x2 restricted to {0, 2} is parity of two bits.
  const FunctionView f(
      4, [](const BitVec& x) { return (x.get(0) != x.get(2)) ? -1 : +1; },
      "x0^x2");
  const TruthTable restricted = restrict_to(f, {0, 2}, false);
  EXPECT_EQ(restricted.num_vars(), 2u);
  EXPECT_EQ(restricted.at(0b00), +1);
  EXPECT_EQ(restricted.at(0b01), -1);
  EXPECT_EQ(restricted.at(0b10), -1);
  EXPECT_EQ(restricted.at(0b11), +1);
}

TEST(Influence, MajorityInfluencesAreEqual) {
  const FunctionView maj(
      3, [](const BitVec& x) { return x.popcount() >= 2 ? -1 : +1; }, "maj3");
  const TruthTable t = TruthTable::from_function(maj);
  EXPECT_DOUBLE_EQ(influence(t, 0), influence(t, 1));
  EXPECT_DOUBLE_EQ(influence(t, 1), influence(t, 2));
  EXPECT_DOUBLE_EQ(influence(t, 0), 0.5);
}

// ---------------------------------------------------- kernel references
//
// The seed's loops for three Fourier kernels the library has since
// optimized (radix-4 + pooled WHT, the bit-sliced parity-cache estimator,
// the rho^d-table noise sensitivity), kept verbatim as references. The
// optimized kernels are contractually bit-identical to them at any
// PITFALLS_THREADS; a compiler that fuses a * b + c into an FMA breaks
// that, which is why the build passes -ffp-contract=off and CI's
// native-isa job runs these tests.

std::vector<double> legacy_wht(const TruthTable& table) {
  const std::uint64_t rows = table.num_rows();
  std::vector<double> data(rows);
  for (std::uint64_t row = 0; row < rows; ++row)
    data[row] = static_cast<double>(table.at(row));
  for (std::uint64_t len = 1; len < rows; len <<= 1)
    for (std::uint64_t block = 0; block < rows; block += len << 1)
      for (std::uint64_t i = block; i < block + len; ++i) {
        const double a = data[i];
        const double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
  const double scale = 1.0 / static_cast<double>(rows);
  for (auto& value : data) value *= scale;
  return data;
}

std::vector<double> legacy_estimate_from_data(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const std::vector<BitVec>& subsets) {
  std::vector<double> out(subsets.size(), 0.0);
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    double sum = 0.0;
    for (std::size_t i = 0; i < challenges.size(); ++i) {
      const int chi = challenges[i].masked_parity(subsets[s]) ? -1 : +1;
      sum += static_cast<double>(responses[i] * chi);
    }
    out[s] = sum / static_cast<double>(challenges.size());
  }
  return out;
}

double legacy_noise_sensitivity(const std::vector<double>& coeffs,
                                double eps) {
  const double rho = 1.0 - 2.0 * eps;
  double stability = 0.0;
  for (std::uint64_t mask = 0; mask < coeffs.size(); ++mask) {
    const int degree = std::popcount(mask);
    stability += std::pow(rho, degree) * coeffs[mask] * coeffs[mask];
  }
  return 0.5 - 0.5 * stability;
}

// Restore the worker-pool size on exit (parallel_test idiom).
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(pitfalls::support::pool_thread_count()) {}
  ~PoolSizeGuard() { pitfalls::support::set_pool_thread_count(saved_); }

 private:
  std::size_t saved_;
};

const std::size_t kPoolSizes[] = {1, 4};

// Every arity from 1 to 16: odd and even stage counts, and the pooled
// sweep, which starts at 2^14 rows.
TEST(KernelReference, WhtMatchesTheRadixTwoLoop) {
  PoolSizeGuard guard;
  for (std::size_t n = 1; n <= 16; ++n) {
    Rng rng(1000 + n);
    const TruthTable t = random_table(n, rng);
    const std::vector<double> expected = legacy_wht(t);
    for (const std::size_t threads : kPoolSizes) {
      pitfalls::support::set_pool_thread_count(threads);
      EXPECT_EQ(FourierSpectrum::of(t).coefficients(), expected)
          << "n=" << n << " threads=" << threads;
    }
  }
}

// Every subset of size <= 2, over CRPs of a 2-XOR arbiter PUF.
TEST(KernelReference, EstimateFromDataMatchesThePerSubsetLoop) {
  PoolSizeGuard guard;
  const std::pair<std::size_t, std::size_t> shapes[] = {{12, 2000},
                                                        {20, 20000}};
  for (const auto& [n, m] : shapes) {
    Rng rng(9);
    const pitfalls::puf::XorArbiterPuf puf =
        pitfalls::puf::XorArbiterPuf::independent(n, 2, 0.0, rng);
    const pitfalls::puf::CrpSet crps =
        pitfalls::puf::CrpSet::collect_uniform(puf, m, rng);
    std::vector<BitVec> subsets;
    for (const auto& subset : pitfalls::support::subsets_up_to_size(n, 2))
      subsets.push_back(pitfalls::support::subset_mask(n, subset));
    const std::vector<double> expected = legacy_estimate_from_data(
        crps.challenges(), crps.responses(), subsets);
    for (const std::size_t threads : kPoolSizes) {
      pitfalls::support::set_pool_thread_count(threads);
      EXPECT_EQ(estimate_coefficients_from_data(crps.challenges(),
                                                crps.responses(), subsets),
                expected)
          << "n=" << n << " m=" << m << " threads=" << threads;
    }
  }
}

TEST(KernelReference, NoiseSensitivityMatchesThePowLoop) {
  PoolSizeGuard guard;
  for (const std::size_t n : {10u, 16u}) {
    Rng rng(11);
    const auto spectrum = FourierSpectrum::of(random_table(n, rng));
    for (const double eps : {0.01, 0.05, 0.25}) {
      const double expected =
          legacy_noise_sensitivity(spectrum.coefficients(), eps);
      for (const std::size_t threads : kPoolSizes) {
        pitfalls::support::set_pool_thread_count(threads);
        EXPECT_EQ(spectrum.noise_sensitivity(eps), expected)
            << "n=" << n << " eps=" << eps << " threads=" << threads;
      }
    }
  }
}

}  // namespace
