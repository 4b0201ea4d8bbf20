// Tests for the empirical XOR-PUF modeling attack (Ruehrmair et al. [8]).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ml/portable_tanh.hpp"
#include "ml/xor_model.hpp"
#include "puf/crp.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace pitfalls::ml;
using pitfalls::puf::CrpSet;
using pitfalls::puf::XorArbiterPuf;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// XorModelConfig as the reference loop reads it: the RProp step sizes it
// had as fields, at the values the library now fixes.
struct LegacyXorConfig : XorModelConfig {
  double init_step = 0.02;
  double step_up = 1.2;
  double step_down = 0.5;
  double min_step = 1e-7;
  double max_step = 2.0;
};

// The scalar XorModelAttack::fit that preceded the vectorised one, kept
// verbatim (member names included) as the reference the library's fit must
// reproduce bit for bit. Only its tanh is the library's, portable_tanh: the
// fit takes the same function of the same scores.
std::vector<std::vector<double>> reference_fit(
    const LegacyXorConfig& config_, const std::vector<BitVec>& challenges,
    const std::vector<int>& responses, const FeatureMap& features, Rng& rng,
    XorModelResult* stats) {
  const std::size_t m = challenges.size();
  std::vector<std::vector<double>> X;
  X.reserve(m);
  for (const auto& c : challenges) X.push_back(features(c));
  const std::size_t dim = X.front().size();
  const std::size_t k = config_.chains;

  auto accuracy_of = [&](const std::vector<std::vector<double>>& w) {
    std::size_t agree = 0;
    for (std::size_t s = 0; s < m; ++s) {
      int product = 1;
      for (const auto& chain : w) {
        double score = 0.0;
        for (std::size_t i = 0; i < dim; ++i) score += chain[i] * X[s][i];
        product *= score < 0.0 ? -1 : +1;
      }
      if (product == responses[s]) ++agree;
    }
    return static_cast<double>(agree) / static_cast<double>(m);
  };

  std::vector<std::vector<double>> best_weights;
  double best_accuracy = -1.0;
  std::size_t best_iterations = 0;
  std::size_t restarts_used = 0;

  for (std::size_t restart = 0; restart < config_.restarts; ++restart) {
    ++restarts_used;
    // Fresh random initialisation.
    std::vector<std::vector<double>> w(k, std::vector<double>(dim));
    for (auto& chain : w)
      for (auto& weight : chain)
        weight = config_.init_scale * rng.gaussian();
    std::vector<std::vector<double>> step(
        k, std::vector<double>(dim, config_.init_step));
    std::vector<std::vector<double>> prev_grad(k,
                                               std::vector<double>(dim, 0.0));

    std::size_t iter = 0;
    for (; iter < config_.max_iters; ++iter) {
      // Batch gradient of NLL = -sum log((1 + y*yhat)/2) with
      // yhat = prod_j tanh(s_j), s_j = w_j . x.
      std::vector<std::vector<double>> grad(k, std::vector<double>(dim, 0.0));
      for (std::size_t s = 0; s < m; ++s) {
        std::vector<double> t(k);
        double yhat = 1.0;
        for (std::size_t j = 0; j < k; ++j) {
          double score = 0.0;
          for (std::size_t i = 0; i < dim; ++i) score += w[j][i] * X[s][i];
          t[j] = portable_tanh(score);
          yhat *= t[j];
        }
        const double y = static_cast<double>(responses[s]);
        const double denom = 1.0 + y * yhat;
        if (denom < 1e-9) continue;  // saturated wrong example: skip
        const double coeff = -y / denom / static_cast<double>(m);
        for (std::size_t j = 0; j < k; ++j) {
          // d yhat / d s_j = (1 - t_j^2) * prod_{l != j} t_l
          double others = 1.0;
          for (std::size_t l = 0; l < k; ++l)
            if (l != j) others *= t[l];
          const double factor = coeff * (1.0 - t[j] * t[j]) * others;
          for (std::size_t i = 0; i < dim; ++i)
            grad[j][i] += factor * X[s][i];
        }
      }

      // RProp update.
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < dim; ++i) {
          const double sign_product = grad[j][i] * prev_grad[j][i];
          if (sign_product > 0.0)
            step[j][i] = std::min(step[j][i] * config_.step_up,
                                  config_.max_step);
          else if (sign_product < 0.0)
            step[j][i] = std::max(step[j][i] * config_.step_down,
                                  config_.min_step);
          if (grad[j][i] > 0.0)
            w[j][i] -= step[j][i];
          else if (grad[j][i] < 0.0)
            w[j][i] += step[j][i];
          prev_grad[j][i] = grad[j][i];
        }
      }

      if ((iter & 15u) == 0 &&
          accuracy_of(w) >= config_.target_train_accuracy)
        break;
    }

    const double acc = accuracy_of(w);
    if (acc > best_accuracy) {
      best_accuracy = acc;
      best_weights = w;
      best_iterations = iter;
    }
    if (best_accuracy >= config_.target_train_accuracy) break;
  }

  if (stats != nullptr) {
    stats->iterations = best_iterations;
    stats->restarts_used = restarts_used;
    stats->train_accuracy = best_accuracy;
  }
  return best_weights;
}

/// Fits with the library and the reference from the same seed and requires
/// identical bits: weights, the stats, and the RNG draws consumed.
void expect_fit_matches_reference(const XorModelConfig& config,
                                  const CrpSet& train,
                                  const FeatureMap& features,
                                  std::uint64_t seed,
                                  XorModelResult* stats_out = nullptr) {
  Rng library_rng(seed);
  XorModelResult library_stats;
  const XorChainModel model =
      XorModelAttack(config).fit(train.challenges(), train.responses(),
                                 features, library_rng, &library_stats);
  LegacyXorConfig legacy;
  static_cast<XorModelConfig&>(legacy) = config;
  Rng reference_rng(seed);
  XorModelResult reference_stats;
  const std::vector<std::vector<double>> reference =
      reference_fit(legacy, train.challenges(), train.responses(), features,
                    reference_rng, &reference_stats);

  ASSERT_EQ(model.weights().size(), reference.size());
  for (std::size_t j = 0; j < reference.size(); ++j) {
    ASSERT_EQ(model.weights()[j].size(), reference[j].size());
    EXPECT_EQ(std::memcmp(model.weights()[j].data(), reference[j].data(),
                          reference[j].size() * sizeof(double)),
              0)
        << "chain " << j;
  }
  EXPECT_EQ(library_stats.iterations, reference_stats.iterations);
  EXPECT_EQ(library_stats.restarts_used, reference_stats.restarts_used);
  EXPECT_EQ(std::memcmp(&library_stats.train_accuracy,
                        &reference_stats.train_accuracy, sizeof(double)),
            0);
  EXPECT_EQ(library_rng(), reference_rng());
  if (stats_out != nullptr) *stats_out = reference_stats;
}

std::vector<double> monomials_degree2(const BitVec& x) {
  return monomial_features(x, 2);
}

/// Parity features scaled per coordinate. Unlike the +/-1 maps, its products
/// w_i * phi_i round, so a fused multiply-add or a reordered sum changes
/// the fit's bits.
std::vector<double> scaled_parity(const BitVec& x) {
  std::vector<double> phi = parity_with_bias(x);
  for (std::size_t i = 0; i < phi.size(); ++i)
    phi[i] *= 0.3 + 0.1 * static_cast<double>(i);
  return phi;
}

TEST(XorChainModel, EvaluatesProductOfSigns) {
  // Two dictator chains: chain 0 = sign of phi_0, chain 1 = sign of phi_1.
  std::vector<std::vector<double>> w{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
  const XorChainModel model(2, std::move(w), pm_with_bias);
  // pm features: (chi(x0), chi(x1), 1).
  EXPECT_EQ(model.eval_pm(BitVec::from_string("00")), +1);  // +1 * +1
  EXPECT_EQ(model.eval_pm(BitVec::from_string("10")), -1);  // -1 * +1
  EXPECT_EQ(model.eval_pm(BitVec::from_string("11")), +1);  // -1 * -1
}

TEST(XorChainModel, SoftResponseBounded) {
  std::vector<std::vector<double>> w{{3.0, -2.0, 0.5}};
  const XorChainModel model(2, std::move(w), pm_with_bias);
  Rng rng(1);
  for (int t = 0; t < 50; ++t) {
    BitVec x(2);
    x.set(0, rng.coin());
    x.set(1, rng.coin());
    const double soft = model.soft_response(x);
    EXPECT_GE(soft, -1.0);
    EXPECT_LE(soft, 1.0);
    // Sign of the soft response matches the hard response.
    EXPECT_EQ(soft < 0 ? -1 : +1, model.eval_pm(x));
  }
}

TEST(XorChainModel, ValidatesConstruction) {
  EXPECT_THROW(XorChainModel(2, {}, pm_with_bias), std::invalid_argument);
  EXPECT_THROW(XorChainModel(2, {{1.0, 2.0}, {1.0}}, pm_with_bias),
               std::invalid_argument);
}

class XorAttackRecovery : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XorAttackRecovery, LearnsKXorArbiterPufs) {
  const std::size_t k = GetParam();
  Rng rng(100 + k);
  const XorArbiterPuf puf = XorArbiterPuf::independent(32, k, 0.0, rng);
  Rng collect(200 + k);
  const std::size_t budget = 2000 * k * k;  // empirical scaling
  const CrpSet train = CrpSet::collect_uniform(puf, budget, collect);
  const CrpSet test = CrpSet::collect_uniform(puf, 3000, collect);

  XorModelConfig config;
  config.chains = k;
  config.restarts = 5;
  Rng attack_rng(300 + k);
  XorModelResult stats;
  const XorChainModel model = XorModelAttack(config).fit(
      train.challenges(), train.responses(), parity_with_bias, attack_rng,
      &stats);
  EXPECT_GT(test.accuracy_of(model), 0.9)
      << "k=" << k << " train acc " << stats.train_accuracy;
}

INSTANTIATE_TEST_SUITE_P(Chains, XorAttackRecovery,
                         ::testing::Values(1, 2, 3));

TEST(XorAttack, SingleChainMatchesLogisticQuality) {
  Rng rng(11);
  const XorArbiterPuf puf = XorArbiterPuf::independent(48, 1, 0.0, rng);
  Rng collect(12);
  const CrpSet train = CrpSet::collect_uniform(puf, 3000, collect);
  const CrpSet test = CrpSet::collect_uniform(puf, 2000, collect);
  XorModelConfig config;
  config.chains = 1;
  Rng attack_rng(13);
  const XorChainModel model = XorModelAttack(config).fit(
      train.challenges(), train.responses(), parity_with_bias, attack_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
}

TEST(XorAttack, ReportsStats) {
  Rng rng(21);
  const XorArbiterPuf puf = XorArbiterPuf::independent(16, 2, 0.0, rng);
  Rng collect(22);
  const CrpSet train = CrpSet::collect_uniform(puf, 4000, collect);
  XorModelConfig config;
  config.chains = 2;
  Rng attack_rng(23);
  XorModelResult stats;
  (void)XorModelAttack(config).fit(train.challenges(), train.responses(),
                                   parity_with_bias, attack_rng, &stats);
  EXPECT_GE(stats.restarts_used, 1u);
  EXPECT_GT(stats.train_accuracy, 0.5);
}

TEST(XorAttack, NoiseToleranceDegradesGracefully) {
  // The [8] observation: the attack tolerates measurement noise in the
  // training labels.
  Rng rng(31);
  const XorArbiterPuf puf = XorArbiterPuf::independent(32, 2, 0.5, rng);
  Rng collect(32);
  const CrpSet noisy_train = CrpSet::collect_noisy(puf, 8000, collect);
  const CrpSet clean_test = CrpSet::collect_uniform(puf, 3000, collect);
  XorModelConfig config;
  config.chains = 2;
  config.restarts = 5;
  config.target_train_accuracy = 0.95;  // noise caps attainable train acc
  Rng attack_rng(33);
  const XorChainModel model =
      XorModelAttack(config).fit(noisy_train.challenges(),
                                 noisy_train.responses(), parity_with_bias,
                                 attack_rng);
  EXPECT_GT(clean_test.accuracy_of(model), 0.85);
}

TEST(XorAttack, ValidatesInputs) {
  Rng rng(1);
  XorModelConfig config;
  const XorModelAttack attack(config);
  EXPECT_THROW(attack.fit({}, {}, pm_with_bias, rng), std::invalid_argument);
  EXPECT_THROW(attack.fit({BitVec(4)}, {2}, pm_with_bias, rng),
               std::invalid_argument);
}

TEST(XorAttack, RejectsRaggedFeatureMatrix) {
  // The second challenge maps to a shorter row than the first.
  const FeatureMap ragged = [](const BitVec& x) {
    return std::vector<double>(x.get(0) ? 2 : 3, 1.0);
  };
  Rng rng(2);
  const XorModelAttack attack(XorModelConfig{});
  EXPECT_THROW(attack.fit({BitVec::from_string("00"),
                           BitVec::from_string("10")},
                          {+1, -1}, ragged, rng),
               std::invalid_argument);
}

TEST(XorAttack, RejectsZeroRestarts) {
  XorModelConfig config;
  config.restarts = 0;
  Rng rng(3);
  try {
    (void)XorModelAttack(config).fit({BitVec(4)}, {+1}, pm_with_bias, rng);
    FAIL() << "restarts == 0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("restart"), std::string::npos)
        << error.what();
  }
}

TEST(XorChainModel, EvalRejectsFeatureDimensionMismatch) {
  // Weights of dimension 3, a feature map producing 4 features.
  const XorChainModel model(2, {{1.0, 0.0, 0.0}}, [](const BitVec&) {
    return std::vector<double>(4, 1.0);
  });
  EXPECT_THROW((void)model.eval_pm(BitVec(2)), std::invalid_argument);
  EXPECT_THROW((void)model.soft_response(BitVec(2)), std::invalid_argument);
}

TEST(XorChainModel, EvalRejectsInputArityMismatch) {
  // A 3-variable model whose feature map ignores its input's length, so
  // only the arity check can catch a 5-bit input.
  const XorChainModel model(3, {{1.0, 0.5}}, [](const BitVec&) {
    return std::vector<double>{1.0, 1.0};
  });
  EXPECT_THROW((void)model.eval_pm(BitVec(5)), std::invalid_argument);
  EXPECT_THROW((void)model.soft_response(BitVec(5)), std::invalid_argument);
}

// The vectorised fit against the seed loop across the shapes that hit the
// kernels' edges: m below, at and past a lane block, chain counts 1-3, a
// feature dimension other than n + 1, features other than +/-1, one and
// several restarts, and accuracy targets that are and are not reached.
TEST(XorAttackBitIdentity, MatchesReferenceAcrossShapes) {
  struct Features {
    const char* name;
    FeatureMap map;
    std::size_t n;
  };
  const std::vector<Features> feature_maps = {
      {"parity_with_bias", parity_with_bias, 64},
      {"pm_with_bias", pm_with_bias, 64},
      {"monomial_features(2)", monomials_degree2, 10},
      {"scaled_parity", scaled_parity, 64}};
  std::size_t reached = 0, missed = 0;
  for (const Features& features : feature_maps) {
    for (const std::size_t k : {1, 2, 3}) {
      Rng puf_rng(40 + k);
      const XorArbiterPuf puf =
          XorArbiterPuf::independent(features.n, k, 0.0, puf_rng);
      for (const std::size_t m : {1, 63, 64, 65, 257, 2000}) {
        Rng collect(50 + m);
        const CrpSet train = CrpSet::collect_uniform(puf, m, collect);
        for (const std::size_t restarts : {1, 3}) {
          SCOPED_TRACE(std::string(features.name) + " k=" +
                       std::to_string(k) + " m=" + std::to_string(m) +
                       " restarts=" + std::to_string(restarts));
          XorModelConfig config;
          config.chains = k;
          config.restarts = restarts;
          config.max_iters = 34;  // accuracy checks at 0, 16 and 32
          config.target_train_accuracy = 0.9;
          XorModelResult stats;
          expect_fit_matches_reference(config, train, features.map,
                                       60 + k + m, &stats);
          if (stats.train_accuracy >= config.target_train_accuracy)
            ++reached;
          else
            ++missed;
        }
      }
    }
  }
  // Both exits of the restart loop ran.
  EXPECT_GT(reached, 0u);
  EXPECT_GT(missed, 0u);
}

TEST(XorAttackBitIdentity, MatchesReferenceWhenGradientCancels) {
  // RProp reads only the gradient's signs, so a rounding-level change to
  // the kernels (a fused multiply-add, say) rarely reaches the weights. Here
  // it does: with zero weights every factor is -y/m, and six samples with
  // one feature and alternating labels add +/-round(0.7/6) pairs that cancel
  // to exactly 0 in the scalar order, so the weights never move. A fused
  // multiply-add leaves the rounding error of 0.7/6 behind and moves them.
  CrpSet train;
  for (std::size_t s = 0; s < 6; ++s) train.add(BitVec(3), s % 2 ? -1 : +1);
  const FeatureMap constant = [](const BitVec&) {
    return std::vector<double>{0.7};
  };
  XorModelConfig config;
  config.chains = 1;
  config.restarts = 1;
  config.max_iters = 20;
  config.init_scale = 0.0;
  XorModelResult stats;
  expect_fit_matches_reference(config, train, constant, 81, &stats);
  EXPECT_EQ(stats.iterations, config.max_iters);
}

TEST(XorAttackBitIdentity, MatchesReferenceWhenSamplesSaturate) {
  // With init_scale 50 the initial scores reach hundreds, tanh rounds to
  // exactly +/-1 and every wrongly predicted sample has denom == 0, so the
  // gradient skips it.
  Rng puf_rng(71);
  const XorArbiterPuf puf = XorArbiterPuf::independent(64, 2, 0.0, puf_rng);
  Rng collect(72);
  const CrpSet train = CrpSet::collect_uniform(puf, 300, collect);
  XorModelConfig config;
  config.chains = 2;
  config.restarts = 2;
  config.max_iters = 40;
  config.init_scale = 50.0;

  // Check that the initial weights do saturate a wrong sample.
  Rng init_rng(73);
  std::vector<std::vector<double>> w(2, std::vector<double>(65));
  for (auto& chain : w)
    for (auto& weight : chain) weight = config.init_scale * init_rng.gaussian();
  std::size_t skipped = 0;
  for (std::size_t s = 0; s < train.size(); ++s) {
    const std::vector<double> phi = parity_with_bias(train.challenge(s));
    double yhat = 1.0;
    for (const auto& chain : w) {
      double score = 0.0;
      for (std::size_t i = 0; i < phi.size(); ++i) score += chain[i] * phi[i];
      yhat *= portable_tanh(score);
    }
    if (1.0 + train.response(s) * yhat < 1e-9) ++skipped;
  }
  ASSERT_GT(skipped, 0u);

  expect_fit_matches_reference(config, train, parity_with_bias, 73);
}

// portable_tanh, the one tanh of the fit and the model.

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// |got - tanh(x)| in units in the last place of the exact value, which the
/// long double tanh gives to about 11 more bits than a double holds.
long double ulps_from_exact(double x, double got) {
  const long double exact = std::tanh(static_cast<long double>(x));
  int exponent = 0;  // |exact| in [2^(exponent - 1), 2^exponent)
  (void)std::frexp(exact, &exponent);
  const long double ulp = std::ldexp(1.0L, std::max(exponent - 53, -1074));
  return std::fabs(static_cast<long double>(got) - exact) / ulp;
}

/// The results' bits, little-endian, as crc32 input.
std::string result_bytes(const std::vector<double>& results) {
  std::string bytes;
  bytes.reserve(results.size() * sizeof(double));
  for (const double r : results)
    for (std::size_t b = 0; b < sizeof(double); ++b)
      bytes.push_back(static_cast<char>((bits_of(r) >> (8 * b)) & 0xffu));
  return bytes;
}

TEST(PortableTanh, WithinTwoUlpOfTheExactValue) {
  if (std::numeric_limits<long double>::digits <=
      std::numeric_limits<double>::digits)
    GTEST_SKIP() << "long double is no wider than double here";
  std::vector<double> points;
  Rng rng(2025);
  for (int i = 0; i < 400000; ++i)
    points.push_back(rng.uniform_real(-25.0, 25.0));
  for (int i = 0; i < 400000; ++i) points.push_back(rng.gaussian(0.0, 2.0));
  // Magnitudes 1e-330 (which underflows to 0) to 1e3, log-spaced.
  constexpr int kLogSteps = 100000;
  for (int i = 0; i < kLogSteps; ++i) {
    const double magnitude =
        std::pow(10.0, -330.0 + 333.0 * i / (kLogSteps - 1));
    points.push_back(magnitude);
    points.push_back(-magnitude);
  }
  // The switch from the rational to the exp form, and its neighbours.
  points.push_back(0.625);
  double below = 0.625, above = 0.625;
  for (int i = 0; i < 1000; ++i) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 1.0);
    points.push_back(below);
    points.push_back(above);
  }
  ASSERT_GE(points.size(), 1000000u);

  std::vector<double> block(points.size());
  portable_tanh(points, block);
  long double worst = 0.0L;
  double worst_x = 0.0;
  std::size_t block_mismatches = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double got = portable_tanh(points[i]);
    if (bits_of(got) != bits_of(block[i])) ++block_mismatches;
    const long double error = ulps_from_exact(points[i], got);
    if (error > worst) {
      worst = error;
      worst_x = points[i];
    }
  }
  EXPECT_LE(worst, 2.0L) << "at x = " << worst_x;
  EXPECT_EQ(block_mismatches, 0u);
}

TEST(PortableTanh, SpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  EXPECT_EQ(bits_of(portable_tanh(0.0)), bits_of(0.0));
  EXPECT_EQ(bits_of(portable_tanh(-0.0)), bits_of(-0.0));
  EXPECT_EQ(bits_of(portable_tanh(kInf)), bits_of(1.0));
  EXPECT_EQ(bits_of(portable_tanh(-kInf)), bits_of(-1.0));
  EXPECT_TRUE(std::isnan(portable_tanh(kNan)));
  EXPECT_TRUE(std::isnan(portable_tanh(-kNan)));
  // From |x| = 19.1 on, tanh rounds to exactly +-1.
  for (double x = 19.1; x < kMax / 2; x *= 1.25) {
    EXPECT_EQ(bits_of(portable_tanh(x)), bits_of(1.0)) << x;
    EXPECT_EQ(bits_of(portable_tanh(-x)), bits_of(-1.0)) << x;
  }
  EXPECT_EQ(bits_of(portable_tanh(kMax)), bits_of(1.0));

  // Odd, bit for bit.
  Rng rng(7);
  std::size_t asymmetric = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.gaussian(0.0, 4.0);
    if (bits_of(portable_tanh(-x)) != bits_of(-portable_tanh(x))) ++asymmetric;
  }
  EXPECT_EQ(asymmetric, 0u);

  // The block form agrees on every special value, NaN included.
  const std::vector<double> specials = {
      0.0,  -0.0,  kInf,  -kInf, kNan, -kNan, 19.1, -19.1, kMax,
      -kMax, 0.625, -0.625, std::numeric_limits<double>::denorm_min()};
  std::vector<double> block(specials.size());
  portable_tanh(specials, block);
  for (std::size_t i = 0; i < specials.size(); ++i) {
    const double scalar = portable_tanh(specials[i]);
    EXPECT_EQ(std::isnan(block[i]), std::isnan(scalar)) << specials[i];
    if (!std::isnan(scalar)) {
      EXPECT_EQ(bits_of(block[i]), bits_of(scalar)) << specials[i];
    }
  }
}

TEST(PortableTanh, BlockMatchesScalarAtEveryOffsetAndLength) {
  Rng rng(11);
  std::vector<double> values(40);
  for (auto& v : values) v = rng.gaussian(0.0, 3.0);
  values[3] = -0.0;
  values[9] = std::numeric_limits<double>::infinity();
  values[10] = 0.625;
  values[17] = -30.0;
  constexpr double kSentinel = 42.0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; offset + length <= values.size();
         ++length) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(length));
      std::vector<double> out(values.size() + 8, kSentinel);
      portable_tanh(std::span<const double>(values).subspan(offset, length),
                    std::span<double>(out).subspan(offset, length));
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (i >= offset && i < offset + length)
          ASSERT_EQ(bits_of(out[i]), bits_of(portable_tanh(values[i])));
        else
          ASSERT_EQ(out[i], kSentinel) << "wrote past the span at " << i;
      }
    }
  }
  std::vector<double> out(3);
  EXPECT_THROW(
      portable_tanh(std::span<const double>(values).first(4), out),
      std::invalid_argument);
}

TEST(PortableTanh, PinnedDigestOverAFixedGrid) {
  // x = i / 2048 on [-16, 16], both forms and the saturating range, then
  // (1 + j / 16) * 2^e for small and mid magnitudes of both signs. A build
  // whose kernel rounds any step differently (a fused multiply-add, a
  // reordered polynomial) moves the digest.
  std::vector<double> grid;
  for (int i = -32768; i <= 32768; ++i) grid.push_back(i / 2048.0);
  for (int e = -1074; e <= 6; ++e)
    for (int j = 0; j < 16; ++j) {
      const double x = std::ldexp(1.0 + j / 16.0, e);
      grid.push_back(x);
      grid.push_back(-x);
    }
  std::vector<double> scalar(grid.size()), block(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    scalar[i] = portable_tanh(grid[i]);
  portable_tanh(grid, block);
  constexpr std::uint32_t kPinned = 0xa86a9488u;
  EXPECT_EQ(pitfalls::support::snapshot::crc32(result_bytes(scalar)),
            kPinned);
  EXPECT_EQ(pitfalls::support::snapshot::crc32(result_bytes(block)),
            kPinned);
}

}  // namespace
