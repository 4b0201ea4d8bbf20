// Unit and property tests for pitfalls::puf: arbiter, XOR-arbiter and
// bistable-ring simulators, CRP collection and PUF metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "boolfn/fourier.hpp"
#include "boolfn/truth_table.hpp"
#include "puf/arbiter.hpp"
#include "puf/bistable_ring.hpp"
#include "puf/crp.hpp"
#include "puf/metrics.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls::puf;
using pitfalls::boolfn::FourierSpectrum;
using pitfalls::boolfn::TruthTable;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// -------------------------------------------------------------- Arbiter

TEST(ArbiterPuf, FeatureMapIsSuffixParity) {
  const BitVec c = BitVec::from_string("0110");
  const auto phi = ArbiterPuf::feature_map(c);
  ASSERT_EQ(phi.size(), 5u);
  // phi_i = prod_{j>=i} (1-2c_j): c = 0,1,1,0 -> signs +,-,-,+
  EXPECT_EQ(phi[3], +1);           // (1-2*0)
  EXPECT_EQ(phi[2], -1);           // (1-2*1)*(+1)
  EXPECT_EQ(phi[1], +1);           // (1-2*1)*(-1)
  EXPECT_EQ(phi[0], +1);           // (1-2*0)*(+1)
  EXPECT_EQ(phi[4], 1);            // bias feature
}

TEST(ArbiterPuf, DeterministicWithoutNoise) {
  Rng rng(1);
  const ArbiterPuf puf(16, 0.0, rng);
  Rng noise(2);
  for (int trial = 0; trial < 50; ++trial) {
    BitVec c(16);
    for (std::size_t i = 0; i < 16; ++i) c.set(i, noise.coin());
    EXPECT_EQ(puf.eval_pm(c), puf.eval_noisy(c, noise));
  }
}

TEST(ArbiterPuf, ExplicitWeightsControlResponse) {
  // Single stage, weights (w0, bias): phi = ((1-2c0), 1).
  const ArbiterPuf puf({1.0, 0.5}, 0.0);
  EXPECT_EQ(puf.eval_pm(BitVec::from_string("0")), +1);  // 1 + 0.5 > 0
  EXPECT_EQ(puf.eval_pm(BitVec::from_string("1")), -1);  // -1 + 0.5 < 0
}

TEST(ArbiterPuf, NoiseReducesReliability) {
  Rng rng(3);
  const ArbiterPuf quiet(24, 0.01, rng);
  const ArbiterPuf noisy(24, 2.0, rng);
  Rng eval(4);
  const double rel_quiet = reliability(quiet, 300, 11, eval);
  const double rel_noisy = reliability(noisy, 300, 11, eval);
  EXPECT_GT(rel_quiet, 0.98);
  EXPECT_LT(rel_noisy, rel_quiet);
  EXPECT_GT(rel_noisy, 0.5);  // still better than coin flipping
}

TEST(ArbiterPuf, IsExactlyAnLtfInFeatureSpace) {
  // The arbiter response equals the sign of w . phi, so learning in feature
  // space must achieve 100% with the true weights.
  Rng rng(5);
  const ArbiterPuf puf(12, 0.0, rng);
  Rng eval(6);
  for (int trial = 0; trial < 200; ++trial) {
    BitVec c(12);
    for (std::size_t i = 0; i < 12; ++i) c.set(i, eval.coin());
    const auto phi = ArbiterPuf::feature_map(c);
    double margin = 0.0;
    for (std::size_t i = 0; i < phi.size(); ++i)
      margin += puf.weights()[i] * phi[i];
    EXPECT_EQ(puf.eval_pm(c), margin < 0 ? -1 : +1);
  }
}

TEST(ArbiterPuf, RejectsBadConstruction) {
  Rng rng(1);
  EXPECT_THROW(ArbiterPuf(0, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(ArbiterPuf(8, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(ArbiterPuf({1.0}, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------- XOR arbiter

TEST(XorArbiterPuf, XorOfChainResponses) {
  Rng rng(7);
  const XorArbiterPuf puf = XorArbiterPuf::independent(10, 3, 0.0, rng);
  Rng eval(8);
  for (int trial = 0; trial < 100; ++trial) {
    BitVec c(10);
    for (std::size_t i = 0; i < 10; ++i) c.set(i, eval.coin());
    int expected = 1;
    for (std::size_t k = 0; k < 3; ++k) expected *= puf.chain(k).eval_pm(c);
    EXPECT_EQ(puf.eval_pm(c), expected);
  }
}

TEST(XorArbiterPuf, SingleChainEqualsArbiter) {
  Rng rng(9);
  const XorArbiterPuf puf = XorArbiterPuf::independent(8, 1, 0.0, rng);
  Rng eval(10);
  for (int trial = 0; trial < 50; ++trial) {
    BitVec c(8);
    for (std::size_t i = 0; i < 8; ++i) c.set(i, eval.coin());
    EXPECT_EQ(puf.eval_pm(c), puf.chain(0).eval_pm(c));
  }
}

TEST(XorArbiterPuf, MoreChainsAreMoreNoiseSensitive) {
  // XOR amplifies noise: NS grows with k (the KOS bound NS <= O(k sqrt(eps))
  // is tight enough to see monotonicity).
  Rng rng(11);
  double previous = 0.0;
  for (std::size_t k : {1u, 3u, 6u}) {
    Rng instance(100);  // same chains prefix for comparability
    const XorArbiterPuf puf = XorArbiterPuf::independent(10, k, 0.0, instance);
    const auto spec =
        FourierSpectrum::of(TruthTable::from_function(puf.feature_space_view()));
    const double ns = spec.noise_sensitivity(0.05);
    EXPECT_GT(ns, previous);
    previous = ns;
  }
}

TEST(XorArbiterPuf, FeatureSpaceViewMatchesChainLtfs) {
  Rng rng(12);
  const XorArbiterPuf puf = XorArbiterPuf::independent(10, 3, 0.0, rng);
  const auto view = puf.feature_space_view();
  Rng eval(120);
  for (int trial = 0; trial < 100; ++trial) {
    BitVec x(10);
    for (std::size_t i = 0; i < 10; ++i) x.set(i, eval.coin());
    int expected = 1;
    for (std::size_t k = 0; k < 3; ++k)
      expected *= puf.chain(k).as_feature_space_ltf().eval_pm(x);
    EXPECT_EQ(view.eval_pm(x), expected);
  }
}

TEST(XorArbiterPuf, IndependentChainsKillLowDegreeWeight) {
  // In the paper's feature-space coordinates each chain is an LTF; XORing
  // independent chains collapses the degree-1 Fourier weight — the reason
  // Corollary 1's bound blows up with k.
  Rng rng(13);
  const XorArbiterPuf single = XorArbiterPuf::independent(10, 1, 0.0, rng);
  const XorArbiterPuf triple = XorArbiterPuf::independent(10, 3, 0.0, rng);
  const double w1_single =
      FourierSpectrum::of(TruthTable::from_function(single.feature_space_view()))
          .weight_up_to_degree(1);
  const double w1_triple =
      FourierSpectrum::of(TruthTable::from_function(triple.feature_space_view()))
          .weight_up_to_degree(1);
  EXPECT_GT(w1_single, 0.3);
  EXPECT_LT(w1_triple, w1_single / 2.0);
}

TEST(XorArbiterPuf, CorrelatedChainsKeepLowDegreeWeight) {
  // The RocknRoll regime [17]: strong chain correlation re-concentrates
  // Fourier weight at low degree even for larger k.
  Rng rng(17);
  const XorArbiterPuf indep = XorArbiterPuf::independent(10, 5, 0.0, rng);
  const XorArbiterPuf corr = XorArbiterPuf::correlated(10, 5, 0.9, 0.0, rng);
  const double low_indep =
      FourierSpectrum::of(TruthTable::from_function(indep.feature_space_view()))
          .weight_up_to_degree(2);
  const double low_corr =
      FourierSpectrum::of(TruthTable::from_function(corr.feature_space_view()))
          .weight_up_to_degree(2);
  EXPECT_GT(low_corr, low_indep + 0.1);
}

TEST(XorArbiterPuf, RejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(XorArbiterPuf::independent(8, 0, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(XorArbiterPuf::correlated(8, 2, 1.0, 0.0, rng),
               std::invalid_argument);
}

// --------------------------------------------------------- BistableRing

TEST(BistableRingPuf, PaperInstanceSharesGrowWithN) {
  const auto c16 = BistableRingConfig::paper_instance(16);
  const auto c32 = BistableRingConfig::paper_instance(32);
  const auto c64 = BistableRingConfig::paper_instance(64);
  EXPECT_LT(c16.nonlinear_share, c32.nonlinear_share);
  EXPECT_LT(c32.nonlinear_share, c64.nonlinear_share);
}

TEST(BistableRingPuf, ZeroShareIsAHalfspace) {
  // With no interaction weight the model degenerates to an LTF over the
  // +/-1 challenge bits: the degree-0/1 Fourier weight must sit near the
  // Gaussian-LTF value 2/pi (plus bias^2).
  Rng rng(19);
  BistableRingConfig cfg;
  cfg.bits = 10;
  cfg.nonlinear_share = 0.0;
  const BistableRingPuf puf(cfg, rng);
  const auto spec = FourierSpectrum::of(TruthTable::from_function(puf));
  EXPECT_GT(spec.weight_up_to_degree(1), 0.5);
}

TEST(BistableRingPuf, NonlinearShareDrainsDegreeOneWeight) {
  Rng rng(23);
  BistableRingConfig weak;
  weak.bits = 12;
  weak.nonlinear_share = 0.1;
  BistableRingConfig strong = weak;
  strong.nonlinear_share = 0.6;
  const BistableRingPuf puf_weak(weak, rng);
  const BistableRingPuf puf_strong(strong, rng);
  const double w1_weak = FourierSpectrum::of(TruthTable::from_function(puf_weak))
                             .weight_at_degree(1);
  const double w1_strong =
      FourierSpectrum::of(TruthTable::from_function(puf_strong))
          .weight_at_degree(1);
  EXPECT_GT(w1_weak, w1_strong + 0.15);
}

TEST(BistableRingPuf, RoughlyBalanced) {
  Rng rng(29);
  const BistableRingPuf puf(BistableRingConfig::paper_instance(16), rng);
  Rng eval(30);
  const double u = uniformity(puf, 20000, eval);
  EXPECT_NEAR(u, 0.5, 0.1);
}

TEST(BistableRingPuf, DeterministicWithoutNoise) {
  Rng rng(31);
  BistableRingConfig cfg = BistableRingConfig::paper_instance(16);
  cfg.noise_sigma = 0.0;
  const BistableRingPuf puf(cfg, rng);
  Rng eval(32);
  BitVec c(16);
  for (std::size_t i = 0; i < 16; ++i) c.set(i, eval.coin());
  const int first = puf.eval_noisy(c, eval);
  for (int trial = 0; trial < 20; ++trial)
    EXPECT_EQ(puf.eval_noisy(c, eval), first);
}

TEST(BistableRingPuf, RejectsTinyRings) {
  // 4 stages offer only six distinct pairs for the ring's eight pair
  // interactions, so it must be refused, not sampled forever.
  for (const std::size_t bits : {3, 4}) {
    Rng rng(1);
    BistableRingConfig cfg;
    cfg.bits = bits;
    EXPECT_THROW(BistableRingPuf(cfg, rng), std::invalid_argument)
        << "bits=" << bits;
  }
}

// ------------------------------------------------------------------ CRP

TEST(CrpSet, UniformCollectionLabelsIdeally) {
  Rng rng(33);
  const ArbiterPuf puf(12, 0.5, rng);
  Rng collect(34);
  const CrpSet set = CrpSet::collect_uniform(puf, 500, collect);
  EXPECT_EQ(set.size(), 500u);
  EXPECT_DOUBLE_EQ(set.accuracy_of(puf), 1.0);
}

TEST(CrpSet, StableCollectionAgreesWithIdealOnLowNoise) {
  Rng rng(35);
  const ArbiterPuf puf(12, 0.2, rng);
  Rng collect(36);
  const CrpSet set = CrpSet::collect_stable(puf, 300, 5, collect);
  // Stable CRPs are overwhelmingly the high-margin ones, which match the
  // ideal response.
  EXPECT_GT(set.accuracy_of(puf), 0.98);
}

TEST(CrpSet, StableCollectionThrowsOnHopelessNoise) {
  Rng rng(37);
  // Zero weights + big noise: every measurement is a coin flip, so 25
  // consecutive agreements essentially never happen.
  const ArbiterPuf puf({1e-9, 1e-9, 1e-9}, 100.0);
  Rng collect(38);
  EXPECT_THROW(CrpSet::collect_stable(puf, 50, 25, collect),
               std::invalid_argument);
}

TEST(CrpSet, SplitPrefixRelabel) {
  Rng rng(39);
  const ArbiterPuf puf(8, 0.0, rng);
  Rng collect(40);
  CrpSet set = CrpSet::collect_uniform(puf, 100, collect);
  const auto [train, test] = set.split_at(60);
  EXPECT_EQ(train.size(), 60u);
  EXPECT_EQ(test.size(), 40u);
  EXPECT_EQ(set.prefix(10).size(), 10u);
  EXPECT_THROW(set.prefix(101), std::invalid_argument);

  const pitfalls::boolfn::FunctionView constant(
      8, [](const BitVec&) { return +1; }, "one");
  const CrpSet relabeled = set.relabel(constant);
  EXPECT_DOUBLE_EQ(relabeled.accuracy_of(constant), 1.0);
}

TEST(CrpSet, ShuffleKeepsPairsTogether) {
  Rng rng(41);
  const ArbiterPuf puf(10, 0.0, rng);
  Rng collect(42);
  CrpSet set = CrpSet::collect_uniform(puf, 200, collect);
  Rng shuffler(43);
  set.shuffle(shuffler);
  EXPECT_DOUBLE_EQ(set.accuracy_of(puf), 1.0);  // labels still match
}

TEST(CrpSet, AddValidatesResponses) {
  CrpSet set;
  EXPECT_THROW(set.add(BitVec(4), 0), std::invalid_argument);
  set.add(BitVec(4), +1);
  EXPECT_THROW(set.add(BitVec(5), -1), std::invalid_argument);
}

// -------------------------------------------------------------- Metrics

TEST(Metrics, UniformityOfBalancedPuf) {
  Rng rng(45);
  const ArbiterPuf puf(32, 0.0, rng);
  Rng eval(46);
  EXPECT_NEAR(uniformity(puf, 20000, eval), 0.5, 0.05);
}

TEST(Metrics, UniquenessOfIndependentInstances) {
  Rng rng(47);
  const ArbiterPuf a(16, 0.0, rng);
  const ArbiterPuf b(16, 0.0, rng);
  const ArbiterPuf c(16, 0.0, rng);
  Rng eval(48);
  const double u = uniqueness({&a, &b, &c}, 4000, eval);
  EXPECT_NEAR(u, 0.5, 0.08);
}

TEST(Metrics, ReliabilityPerfectWithoutNoise) {
  Rng rng(49);
  const ArbiterPuf puf(16, 0.0, rng);
  Rng eval(50);
  EXPECT_DOUBLE_EQ(reliability(puf, 200, 5, eval), 1.0);
}

TEST(Metrics, ExpectedBiasTracksIdealBias) {
  // A single instance carries its own bias (the threshold weight); the
  // *expected* bias under attribute noise must stay close to it for small
  // noise — the quantity the paper's Section III-A excludes from its bounds.
  Rng rng(51);
  const ArbiterPuf puf(16, 0.3, rng);
  Rng eval(52);
  const double ideal = 1.0 - 2.0 * uniformity(puf, 20000, eval);
  EXPECT_NEAR(expected_bias(puf, 20000, eval), ideal, 0.05);
}

TEST(Metrics, MajorityVoteBeatsOneShot) {
  Rng rng(53);
  const ArbiterPuf puf(16, 1.0, rng);
  Rng eval(54);
  std::size_t correct_single = 0;
  std::size_t correct_majority = 0;
  for (int trial = 0; trial < 400; ++trial) {
    BitVec c(16);
    for (std::size_t i = 0; i < 16; ++i) c.set(i, eval.coin());
    const int ideal = puf.eval_pm(c);
    if (puf.eval_noisy(c, eval) == ideal) ++correct_single;
    if (puf.eval_majority(c, 15, eval) == ideal) ++correct_majority;
  }
  EXPECT_GE(correct_majority, correct_single);
}

}  // namespace
