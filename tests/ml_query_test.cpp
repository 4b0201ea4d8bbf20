// Tests for the membership/equivalence-query machinery: oracles, the
// bounded-degree ANF interpolator, the Schapire–Sellie-style sparse
// polynomial learner and the junta learner (Corollary 2's toolchain).
#include <gtest/gtest.h>

#include "boolfn/anf.hpp"
#include "boolfn/ltf.hpp"
#include "boolfn/truth_table.hpp"
#include "ml/anf_learner.hpp"
#include "ml/junta.hpp"
#include "ml/oracle.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/combinatorics.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls::ml;
using pitfalls::boolfn::AnfPolynomial;
using pitfalls::boolfn::FunctionView;
using pitfalls::boolfn::Ltf;
using pitfalls::boolfn::TruthTable;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// -------------------------------------------------------------- oracles

TEST(Oracle, MembershipCountsQueries) {
  const FunctionView f(3, [](const BitVec& x) { return x.pm_one(0); }, "d");
  FunctionMembershipOracle oracle(f);
  EXPECT_EQ(oracle.queries(), 0u);
  oracle.query_pm(BitVec(3));
  oracle.query_f2(BitVec(3, 1));
  EXPECT_EQ(oracle.queries(), 2u);
}

TEST(Oracle, ExhaustiveEquivalenceFindsDifference) {
  const FunctionView f(4, [](const BitVec& x) { return x.pm_one(0); }, "d0");
  const FunctionView g(4, [](const BitVec& x) { return x.pm_one(1); }, "d1");
  ExhaustiveEquivalenceOracle oracle(f);
  const auto cex = oracle.counterexample(g);
  ASSERT_TRUE(cex.has_value());
  EXPECT_NE(f.eval_pm(*cex), g.eval_pm(*cex));
  EXPECT_FALSE(oracle.counterexample(f).has_value());
  EXPECT_EQ(oracle.calls(), 2u);
}

TEST(Oracle, SampledEquivalenceAcceptsEqualFunctions) {
  const FunctionView f(16, [](const BitVec& x) { return x.pm_one(3); }, "d");
  Rng rng(1);
  SampledEquivalenceOracle oracle(f, 0.05, 0.01, rng);
  EXPECT_FALSE(oracle.counterexample(f).has_value());
  EXPECT_GT(oracle.samples_used(), 0u);
}

TEST(Oracle, SampledEquivalenceCatchesFarHypotheses) {
  const FunctionView f(16, [](const BitVec& x) { return x.pm_one(0); }, "d");
  const FunctionView not_f(
      16, [](const BitVec& x) { return -x.pm_one(0); }, "~d");
  Rng rng(2);
  SampledEquivalenceOracle oracle(f, 0.05, 0.01, rng);
  const auto cex = oracle.counterexample(not_f);
  ASSERT_TRUE(cex.has_value());
  EXPECT_NE(f.eval_pm(*cex), not_f.eval_pm(*cex));
}

// ----------------------------------------------- bounded-degree learner

class AnfInterpolation
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AnfInterpolation, RecoversRandomSparsePolynomials) {
  const auto [n, degree] = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + n * 10 + degree));
  // Keep the term count below the number of available distinct monomials
  // (degree 1 offers only n of them).
  const std::size_t terms = degree == 1 ? n / 2 : 2 * n;
  const AnfPolynomial target = AnfPolynomial::random(n, terms, degree, rng);
  FunctionMembershipOracle oracle(target);
  const auto result = learn_anf_bounded_degree(oracle, degree);
  EXPECT_EQ(result.polynomial, target);
  EXPECT_EQ(result.membership_queries,
            pitfalls::support::binomial_sum(n, degree));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnfInterpolation,
    ::testing::Combine(::testing::Values<std::size_t>(6, 10, 16),
                       ::testing::Values<std::size_t>(1, 2, 3)));

TEST(AnfLearner, PolyQueryCountIsPolynomialInN) {
  // The Corollary 2 headline: fixed degree -> poly(n) membership queries.
  Rng rng(3);
  std::size_t previous = 0;
  for (std::size_t n : {8, 16, 32}) {
    const AnfPolynomial target = AnfPolynomial::random(n, 5, 2, rng);
    FunctionMembershipOracle oracle(target);
    const auto result = learn_anf_bounded_degree(oracle, 2);
    EXPECT_EQ(result.membership_queries, 1 + n + n * (n - 1) / 2);
    EXPECT_GT(result.membership_queries, previous);
    previous = result.membership_queries;
  }
}

TEST(AnfLearner, UnderestimatedDegreeIsDetectableViaEq) {
  // Degree-3 target interpolated at degree 2: the EQ oracle must refute it.
  Rng rng(4);
  AnfPolynomial target(8);
  target.toggle_monomial(BitVec::from_string("11100000"));
  FunctionMembershipOracle oracle(target);
  const auto result = learn_anf_bounded_degree(oracle, 2);
  ExhaustiveEquivalenceOracle eq(target);
  EXPECT_TRUE(eq.counterexample(result.polynomial).has_value());
}

TEST(AnfLearner, RefusesAbsurdBudgets) {
  const AnfPolynomial target(40);
  FunctionMembershipOracle oracle(target);
  EXPECT_THROW(learn_anf_bounded_degree(oracle, 20), std::invalid_argument);
}

// ------------------------------------------------- sparse-poly learner

class SparsePoly
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SparsePoly, ExactWithExhaustiveEq) {
  const auto [terms, degree] = GetParam();
  Rng rng(static_cast<std::uint64_t>(2000 + terms * 10 + degree));
  const std::size_t n = 12;
  const AnfPolynomial target = AnfPolynomial::random(n, terms, degree, rng);
  FunctionMembershipOracle mq(target);
  ExhaustiveEquivalenceOracle eq(target);
  const auto result = SparsePolyLearner().learn(mq, eq);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.hypothesis, target);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparsePoly,
    ::testing::Combine(::testing::Values<std::size_t>(1, 4, 8),
                       ::testing::Values<std::size_t>(1, 2, 4)));

TEST(SparsePolyLearner, HandlesParityViaGroupDescent) {
  // Parity = n degree-1 monomials; single-bit descent stalls at full
  // support, the pair descent must escape.
  const std::size_t n = 10;
  std::vector<BitVec> singletons;
  for (std::size_t i = 0; i < n; ++i) {
    BitVec m(n);
    m.set(i, true);
    singletons.push_back(m);
  }
  const AnfPolynomial parity(n, singletons);
  FunctionMembershipOracle mq(parity);
  ExhaustiveEquivalenceOracle eq(parity);
  const auto result = SparsePolyLearner().learn(mq, eq);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.hypothesis, parity);
}

TEST(SparsePolyLearner, ApproximateWithSampledEq) {
  Rng rng(5);
  const AnfPolynomial target = AnfPolynomial::random(16, 6, 3, rng);
  FunctionMembershipOracle mq(target);
  SampledEquivalenceOracle eq(target, 0.02, 0.01, rng);
  const auto result = SparsePolyLearner().learn(mq, eq);
  EXPECT_TRUE(result.exact);  // oracle accepted
  // Verify the hypothesis really is close by sampling.
  std::size_t agree = 0;
  for (int i = 0; i < 4000; ++i) {
    BitVec x(16);
    for (std::size_t b = 0; b < 16; ++b) x.set(b, rng.coin());
    if (target.eval_f2(x) == result.hypothesis.eval_f2(x)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / 4000.0, 0.97);
}

TEST(SparsePolyLearner, RefusesOversizedMinimalPoints) {
  // A single degree-18 monomial: the minimal true point has 18 set bits,
  // beyond the downset-interpolation cap — the learner must refuse loudly
  // instead of looping or exploding.
  const std::size_t n = 24;
  BitVec monomial(n);
  for (std::size_t i = 0; i < 18; ++i) monomial.set(i, true);
  const AnfPolynomial target(n, {monomial});
  FunctionMembershipOracle mq(target);
  ExhaustiveEquivalenceOracle eq(target);
  SparsePolyConfig config;
  config.max_minimal_support = 12;
  config.descent_group_size = 2;
  EXPECT_THROW(SparsePolyLearner(config).learn(mq, eq),
               std::invalid_argument);
}

TEST(SparsePolyLearner, CountsQueries) {
  Rng rng(6);
  const AnfPolynomial target = AnfPolynomial::random(10, 3, 2, rng);
  FunctionMembershipOracle mq(target);
  ExhaustiveEquivalenceOracle eq(target);
  const auto result = SparsePolyLearner().learn(mq, eq);
  EXPECT_GT(result.membership_queries, 0u);
  EXPECT_GE(result.equivalence_queries, 2u);  // at least one cex + accept
}

// --------------------------------------------------------- junta learner

TEST(JuntaHypothesis, ProjectsOntoRelevantVariables) {
  // table over vars {1,3}: row bit0 <- var1, bit1 <- var3.
  TruthTable table(2);
  table.set(0b00, +1);
  table.set(0b01, -1);
  table.set(0b10, -1);
  table.set(0b11, +1);
  const JuntaHypothesis h(5, {1, 3}, table);
  BitVec x(5);
  x.set(1, true);  // row 0b01 -> -1
  EXPECT_EQ(h.eval_pm(x), -1);
  x.set(3, true);  // row 0b11 -> +1
  EXPECT_EQ(h.eval_pm(x), +1);
  x.set(0, true);  // irrelevant variable: no change
  EXPECT_EQ(h.eval_pm(x), +1);
}

class JuntaRecovery : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JuntaRecovery, FindsPlantedJunta) {
  const std::size_t k = GetParam();
  const std::size_t n = 24;
  Rng rng(3000 + k);
  // Plant a random function on k random variables.
  std::vector<std::size_t> planted;
  while (planted.size() < k) {
    const auto v = static_cast<std::size_t>(rng.uniform_below(n));
    bool dup = false;
    for (auto p : planted) dup = dup || (p == v);
    if (!dup) planted.push_back(v);
  }
  std::sort(planted.begin(), planted.end());
  TruthTable table(k);
  // Parity on the planted variables: every variable relevant.
  for (std::uint64_t row = 0; row < table.num_rows(); ++row)
    table.set(row, (std::popcount(row) & 1) ? -1 : +1);
  const JuntaHypothesis target(n, planted, table);

  FunctionMembershipOracle oracle(target);
  JuntaLearnResult stats;
  const JuntaHypothesis learned =
      JuntaLearner({.probes_per_round = 256, .max_junta = 16})
          .learn(oracle, rng, &stats);
  EXPECT_EQ(learned.relevant(), planted);
  EXPECT_FALSE(stats.hit_cap);
  // Exact recovery.
  for (int trial = 0; trial < 500; ++trial) {
    BitVec x(n);
    for (std::size_t b = 0; b < n; ++b) x.set(b, rng.coin());
    EXPECT_EQ(learned.eval_pm(x), target.eval_pm(x));
  }
}

INSTANTIATE_TEST_SUITE_P(JuntaSizes, JuntaRecovery,
                         ::testing::Values(1, 2, 4, 6));

TEST(JuntaLearner, ConstantFunctionHasNoRelevantVariables) {
  const FunctionView constant(12, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle oracle(constant);
  Rng rng(7);
  JuntaLearnResult stats;
  const auto h = JuntaLearner().learn(oracle, rng, &stats);
  EXPECT_TRUE(stats.relevant.empty());
  EXPECT_EQ(h.eval_pm(BitVec(12, 0xfff)), +1);
}

TEST(JuntaLearner, NearJuntaLtfChainsAreLearnable) {
  // The regime Corollary 2 implicitly needs: decaying-weight arbiter chains
  // are close to juntas on their leading feature bits. We learn the
  // dominating junta and check useful accuracy — and note that *regular*
  // chains would not satisfy this premise (a pitfall in itself).
  Rng rng(8);
  const Ltf near_junta = Ltf::random_decaying(16, 0.35, rng);
  FunctionMembershipOracle oracle(near_junta);
  JuntaLearnResult stats;
  const auto h = JuntaLearner({.probes_per_round = 128, .max_junta = 8})
                     .learn(oracle, rng, &stats);
  std::size_t agree = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    BitVec x(16);
    for (std::size_t b = 0; b < 16; ++b) x.set(b, rng.coin());
    if (h.eval_pm(x) == near_junta.eval_pm(x)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / 4000.0, 0.9);
}

}  // namespace
