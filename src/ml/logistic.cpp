#include "ml/logistic.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

LogisticResult LogisticRegression::fit(
    const std::vector<std::vector<double>>& X, const std::vector<int>& y,
    support::Rng& rng) const {
  PITFALLS_REQUIRE(!X.empty(), "empty training set");
  PITFALLS_REQUIRE(X.size() == y.size(), "feature/label count mismatch");
  const std::size_t dim = X.front().size();
  PITFALLS_REQUIRE(dim > 0, "features must be non-empty");
  for (const auto& row : X)
    PITFALLS_REQUIRE(row.size() == dim, "ragged feature matrix");
  for (auto label : y)
    PITFALLS_REQUIRE(label == +1 || label == -1, "labels must be +/-1");

  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "ml.logistic.fit_seconds");

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

  registry.counter("ml.logistic.fits").add(1);
  registry.counter("ml.logistic.iterations").add(iter);
  registry.gauge("ml.logistic.final_loss").set(loss);

  LogisticResult result;
  result.weights = std::move(w);
  result.iterations = iter;
  result.final_loss = loss;
  return result;
}

LinearModel LogisticRegression::fit_model(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const FeatureMap& features, support::Rng& rng,
    LogisticResult* stats) const {
  PITFALLS_REQUIRE(!challenges.empty(), "empty training set");
  std::vector<std::vector<double>> X;
  X.reserve(challenges.size());
  for (const auto& c : challenges) X.push_back(features(c));
  LogisticResult result = fit(X, responses, rng);
  if (stats != nullptr) *stats = result;
  return LinearModel(challenges.front().size(), std::move(result.weights),
                     features, "logistic-regression hypothesis");
}

}  // namespace pitfalls::ml
