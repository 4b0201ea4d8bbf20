// Tests for the linear learners: feature maps, Perceptron, logistic
// regression — including the representation pitfall (Section V-A): the same
// Perceptron that masters an arbiter PUF in parity-feature space fails in
// raw challenge space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "ml/features.hpp"
#include "ml/linear_model.hpp"
#include "ml/logistic.hpp"
#include "ml/perceptron.hpp"
#include "puf/arbiter.hpp"
#include "puf/crp.hpp"
#include "support/combinatorics.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls::ml;
using pitfalls::puf::ArbiterPuf;
using pitfalls::puf::CrpSet;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// ------------------------------------------------------------- features

TEST(Features, PmWithBias) {
  const auto phi = pm_with_bias(BitVec::from_string("011"));
  EXPECT_EQ(phi, (std::vector<double>{1.0, -1.0, -1.0, 1.0}));
}

TEST(Features, ParityWithBiasMatchesArbiterMap) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec c(9);
    for (std::size_t i = 0; i < 9; ++i) c.set(i, rng.coin());
    const auto phi = parity_with_bias(c);
    const auto reference = ArbiterPuf::feature_map(c);
    ASSERT_EQ(phi.size(), reference.size());
    for (std::size_t i = 0; i < phi.size(); ++i)
      EXPECT_DOUBLE_EQ(phi[i], static_cast<double>(reference[i]));
  }
}

TEST(Features, MonomialFeaturesMatchCharacters) {
  const BitVec x = BitVec::from_string("01");
  const auto phi = monomial_features(x, 2);
  // Subsets in order: {}, {0}, {1}, {0,1}.
  EXPECT_EQ(phi, (std::vector<double>{1.0, 1.0, -1.0, -1.0}));
  EXPECT_EQ(monomial_features(x, 1).size(),
            pitfalls::support::binomial_sum(2, 1));
}

TEST(LinearModel, ScoreAndSign) {
  LinearModel model(2, {1.0, -2.0, 0.5}, pm_with_bias, "test");
  const BitVec x = BitVec::from_string("01");  // phi = (1, -1, 1)
  EXPECT_DOUBLE_EQ(model.score(x), 1.0 + 2.0 + 0.5);
  EXPECT_EQ(model.eval_pm(x), +1);
}

TEST(LinearModel, ValidatesDimensions) {
  EXPECT_THROW(LinearModel(2, {}, pm_with_bias), std::invalid_argument);
  LinearModel model(2, {1.0, 1.0}, pm_with_bias);  // wrong dim discovered on use
  EXPECT_THROW(model.score(BitVec(2)), std::invalid_argument);
}

// ----------------------------------------------------------- perceptron

TEST(Perceptron, ConvergesOnSeparableData) {
  Rng rng(11);
  // Labels from a planted LTF in pm-feature space.
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  const std::vector<double> w{1.5, -2.0, 0.7, 0.1, 0.5};
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.gaussian();
    double score = 0.0;
    for (std::size_t j = 0; j < 5; ++j) score += w[j] * row[j];
    if (std::abs(score) < 0.1) continue;  // keep a margin
    X.push_back(row);
    y.push_back(score < 0 ? -1 : +1);
  }
  const Perceptron learner;
  const auto result = learner.fit(X, y, rng);
  EXPECT_TRUE(result.converged);
  // Zero training error after convergence.
  for (std::size_t i = 0; i < X.size(); ++i) {
    double score = 0.0;
    for (std::size_t j = 0; j < 5; ++j) score += result.weights[j] * X[i][j];
    EXPECT_EQ(score < 0 ? -1 : +1, y[i]);
  }
}

TEST(Perceptron, LearnsArbiterPufInParityFeatures) {
  Rng rng(13);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(14);
  const CrpSet all = CrpSet::collect_uniform(puf, 3000, collect);
  const auto [train, test] = all.split_at(2000);

  Rng train_rng(15);
  const Perceptron learner;
  const LinearModel model = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
}

TEST(Perceptron, RawFeaturesFailOnArbiterPuf) {
  // Representation pitfall: in raw +/-1 challenge space the arbiter PUF is
  // not linearly separable and accuracy stalls far below the parity-feature
  // result.
  Rng rng(17);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(18);
  const CrpSet all = CrpSet::collect_uniform(puf, 3000, collect);
  const auto [train, test] = all.split_at(2000);

  Rng train_rng(19);
  const Perceptron learner;
  const LinearModel raw = learner.fit_model(
      train.challenges(), train.responses(), pm_with_bias, train_rng);
  const LinearModel parity = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_LT(test.accuracy_of(raw), test.accuracy_of(parity) - 0.15);
}

TEST(Perceptron, AveragedVariantAlsoLearns) {
  Rng rng(21);
  const ArbiterPuf puf(16, 0.0, rng);
  Rng collect(22);
  const CrpSet all = CrpSet::collect_uniform(puf, 2000, collect);
  const auto [train, test] = all.split_at(1500);

  PerceptronConfig config;
  config.averaged = true;
  Rng train_rng(23);
  const LinearModel model =
      Perceptron(config).fit_model(train.challenges(), train.responses(),
                                   parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.93);
}

TEST(Perceptron, TracksMistakes) {
  Rng rng(25);
  std::vector<std::vector<double>> X{{1.0, 1.0}, {-1.0, 1.0}};
  std::vector<int> y{+1, -1};
  const auto result = Perceptron().fit(X, y, rng);
  EXPECT_GT(result.mistakes, 0u);  // at least the first update
  EXPECT_TRUE(result.converged);
}

TEST(Perceptron, ValidatesInputs) {
  Rng rng(1);
  const Perceptron learner;
  EXPECT_THROW(learner.fit({}, {}, rng), std::invalid_argument);
  EXPECT_THROW(learner.fit({{1.0}}, {2}, rng), std::invalid_argument);
  EXPECT_THROW(learner.fit({{1.0}, {1.0, 2.0}}, {1, -1}, rng),
               std::invalid_argument);
}

// ------------------------------------------------------------- logistic

TEST(Logistic, LearnsArbiterPufInParityFeatures) {
  Rng rng(27);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(28);
  const CrpSet all = CrpSet::collect_uniform(puf, 4000, collect);
  const auto [train, test] = all.split_at(3000);

  Rng train_rng(29);
  const LogisticRegression learner;
  const LinearModel model = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
}

TEST(Logistic, ToleratesResponseNoiseBetterThanItsTrainingError) {
  // The classic empirical modeling-attack setting [8]: noisy CRPs in, still
  // a high-accuracy model of the ideal PUF out.
  Rng rng(31);
  const ArbiterPuf puf(16, 0.5, rng);
  Rng collect(32);
  const CrpSet noisy_train = CrpSet::collect_noisy(puf, 3000, collect);
  const CrpSet clean_test = CrpSet::collect_uniform(puf, 1500, collect);

  Rng train_rng(33);
  const LinearModel model =
      LogisticRegression().fit_model(noisy_train.challenges(),
                                     noisy_train.responses(),
                                     parity_with_bias, train_rng);
  EXPECT_GT(clean_test.accuracy_of(model), 0.9);
}

TEST(Logistic, ReportsLossAndIterations) {
  Rng rng(35);
  // Three challenges whose feature rows are {1, 1}, {-1, 1} and {0.5, 1}.
  const FeatureMap rows = [](const BitVec& x) {
    if (x.get(0)) return std::vector<double>{-1.0, 1.0};
    if (x.get(1)) return std::vector<double>{0.5, 1.0};
    return std::vector<double>{1.0, 1.0};
  };
  const std::vector<BitVec> challenges{BitVec::from_string("00"),
                                       BitVec::from_string("10"),
                                       BitVec::from_string("01")};
  LogisticResult stats;
  (void)LogisticRegression().fit_model(challenges, {+1, -1, +1}, rows, rng,
                                       &stats);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GE(stats.final_loss, 0.0);
}

TEST(Logistic, ValidatesInputs) {
  Rng rng(1);
  const LogisticRegression learner;
  EXPECT_THROW(learner.fit_model({}, {}, pm_with_bias, rng),
               std::invalid_argument);
  EXPECT_THROW(learner.fit_model({BitVec(1)}, {0}, pm_with_bias, rng),
               std::invalid_argument);
  EXPECT_THROW(learner.fit_model({BitVec(1)}, {+1, -1}, pm_with_bias, rng),
               std::invalid_argument);
  const FeatureMap empty = [](const BitVec&) { return std::vector<double>{}; };
  EXPECT_THROW(learner.fit_model({BitVec(1)}, {+1}, empty, rng),
               std::invalid_argument);
  const FeatureMap ragged = [](const BitVec& x) {
    return std::vector<double>(x.get(0) ? 2 : 3, 1.0);
  };
  EXPECT_THROW(learner.fit_model({BitVec::from_string("0"),
                                  BitVec::from_string("1")},
                                 {+1, -1}, ragged, rng),
               std::invalid_argument);
}

// ------------------------------------------------ logistic bit identity

// LogisticConfig as the reference loop reads it: the RProp step sizes and
// the stopping tolerance it had as fields, at the values the library now
// fixes.
struct LegacyLogisticConfig {
  std::size_t max_iters = 300;
  double init_step = 0.05;
  double step_up = 1.2;      // RProp step growth on sign agreement
  double step_down = 0.5;    // RProp step shrink on sign flip
  double min_step = 1e-8;
  double max_step = 10.0;
  double tolerance = 1e-6;   // stop when the gradient norm falls below this
};

struct ReferenceResult {
  std::vector<double> weights;
  std::size_t iterations = 0;
  double final_loss = 0.0;
};

// The scalar LogisticRegression::fit that preceded the shared training
// kernels, kept verbatim (member names included, metrics left out) as the
// reference fit_model must reproduce bit for bit.
ReferenceResult reference_fit(const LegacyLogisticConfig& config_,
                              const std::vector<std::vector<double>>& X,
                              const std::vector<int>& y, Rng& rng) {
  const std::size_t dim = X.front().size();
  const double m = static_cast<double>(X.size());
  std::vector<double> w(dim);
  for (auto& weight : w) weight = 0.01 * rng.gaussian();
  std::vector<double> step(dim, config_.init_step);
  std::vector<double> prev_grad(dim, 0.0);

  double loss = 0.0;
  std::size_t iter = 0;
  for (; iter < config_.max_iters; ++iter) {
    // Negative log-likelihood with +/-1 labels: sum log(1 + exp(-y w.x)).
    std::vector<double> grad(dim, 0.0);
    loss = 0.0;
    for (std::size_t i = 0; i < X.size(); ++i) {
      double score = 0.0;
      for (std::size_t j = 0; j < dim; ++j) score += w[j] * X[i][j];
      const double z = static_cast<double>(y[i]) * score;
      // Stable log(1+exp(-z)) and sigma(-z).
      const double nll = z > 0 ? std::log1p(std::exp(-z))
                               : -z + std::log1p(std::exp(z));
      loss += nll / m;
      const double sig = z > 0 ? std::exp(-z) / (1.0 + std::exp(-z))
                               : 1.0 / (1.0 + std::exp(z));
      const double coeff = -static_cast<double>(y[i]) * sig / m;
      for (std::size_t j = 0; j < dim; ++j) grad[j] += coeff * X[i][j];
    }

    double grad_norm = 0.0;
    for (auto g : grad) grad_norm += g * g;
    if (std::sqrt(grad_norm) < config_.tolerance) break;

    // RProp: per-dimension sign-based step adaptation.
    for (std::size_t j = 0; j < dim; ++j) {
      const double sign_product = grad[j] * prev_grad[j];
      if (sign_product > 0.0)
        step[j] = std::min(step[j] * config_.step_up, config_.max_step);
      else if (sign_product < 0.0)
        step[j] = std::max(step[j] * config_.step_down, config_.min_step);
      if (grad[j] > 0.0)
        w[j] -= step[j];
      else if (grad[j] < 0.0)
        w[j] += step[j];
      prev_grad[j] = grad[j];
    }
  }

  ReferenceResult result;
  result.weights = std::move(w);
  result.iterations = iter;
  result.final_loss = loss;
  return result;
}

/// Fits with the library and the reference from the same seed and requires
/// identical bits: weights, iterations, final loss and the next RNG draw.
/// Returns the fit's iteration count.
std::size_t expect_fit_matches_reference(std::size_t max_iters,
                                         const CrpSet& train,
                                         const FeatureMap& features,
                                         std::uint64_t seed) {
  LogisticConfig config;
  config.max_iters = max_iters;
  Rng library_rng(seed);
  LogisticResult stats;
  const LinearModel model = LogisticRegression(config).fit_model(
      train.challenges(), train.responses(), features, library_rng, &stats);

  LegacyLogisticConfig legacy;
  legacy.max_iters = max_iters;
  std::vector<std::vector<double>> X;
  for (const BitVec& c : train.challenges()) X.push_back(features(c));
  Rng reference_rng(seed);
  const ReferenceResult reference =
      reference_fit(legacy, X, train.responses(), reference_rng);

  EXPECT_EQ(model.weights().size(), reference.weights.size());
  if (model.weights().size() == reference.weights.size()) {
    EXPECT_EQ(std::memcmp(model.weights().data(), reference.weights.data(),
                          reference.weights.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(stats.iterations, reference.iterations);
  EXPECT_EQ(std::memcmp(&stats.final_loss, &reference.final_loss,
                        sizeof(double)),
            0)
      << stats.final_loss << " vs " << reference.final_loss;
  EXPECT_EQ(library_rng(), reference_rng());
  return reference.iterations;
}

std::vector<double> monomials_degree2(const BitVec& x) {
  return monomial_features(x, 2);
}

/// Parity features scaled per coordinate. Unlike the +/-1 maps, its products
/// w_i * phi_i round, so a fused multiply-add in the score pass changes the
/// scores and with them the loss.
std::vector<double> scaled_parity(const BitVec& x) {
  std::vector<double> phi = parity_with_bias(x);
  for (std::size_t i = 0; i < phi.size(); ++i)
    phi[i] *= 0.3 + 0.1 * static_cast<double>(i);
  return phi;
}

// fit_model against the scalar loop across the shapes that hit the
// kernels' edges: m below, at and past a 32-lane block and a 4-sample
// gradient group, feature dimensions n + 1 and 1 + n + C(n, 2), features
// other than +/-1, and fits that stop on the gradient tolerance as well as
// on max_iters.
TEST(LogisticBitIdentity, MatchesReferenceAcrossShapes) {
  struct Features {
    const char* name;
    FeatureMap map;
    std::size_t n;
  };
  const std::vector<Features> feature_maps = {
      {"parity_with_bias", parity_with_bias, 64},
      {"parity_with_bias", parity_with_bias, 100},
      {"pm_with_bias", pm_with_bias, 64},
      {"pm_with_bias", pm_with_bias, 100},
      {"monomial_features(2)", monomials_degree2, 10},
      {"scaled_parity", scaled_parity, 64}};
  std::size_t converged = 0, capped = 0;
  for (const Features& features : feature_maps) {
    Rng puf_rng(40 + features.n);
    const ArbiterPuf puf(features.n, 0.0, puf_rng);
    for (const std::size_t m : {1, 2, 31, 32, 33, 256, 1000}) {
      Rng collect(50 + m);
      const CrpSet train = CrpSet::collect_uniform(puf, m, collect);
      for (const std::size_t max_iters : {300, 7}) {
        SCOPED_TRACE(std::string(features.name) +
                     " n=" + std::to_string(features.n) +
                     " m=" + std::to_string(m) +
                     " max_iters=" + std::to_string(max_iters));
        const std::size_t iterations = expect_fit_matches_reference(
            max_iters, train, features.map, 60 + m);
        if (iterations < max_iters)
          ++converged;
        else
          ++capped;
      }
    }
  }
  // Both stop rules ran.
  EXPECT_GT(converged, 0u);
  EXPECT_GT(capped, 0u);
}

}  // namespace
