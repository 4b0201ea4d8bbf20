#include "ml/perceptron.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

PerceptronResult Perceptron::fit(const std::vector<std::vector<double>>& X,
                                 const std::vector<int>& y,
                                 support::Rng& rng) const {
  PITFALLS_REQUIRE(!X.empty(), "empty training set");
  PITFALLS_REQUIRE(X.size() == y.size(), "feature/label count mismatch");
  const std::size_t dim = X.front().size();
  PITFALLS_REQUIRE(dim > 0, "features must be non-empty");
  for (const auto& row : X)
    PITFALLS_REQUIRE(row.size() == dim, "ragged feature matrix");
  for (auto label : y)
    PITFALLS_REQUIRE(label == +1 || label == -1, "labels must be +/-1");
  PITFALLS_REQUIRE(config_.max_epochs > 0, "need at least one epoch");

  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "ml.perceptron.fit_seconds");

  std::vector<double> w(dim, 0.0);
  std::vector<double> w_sum(dim, 0.0);  // for the averaged variant
  std::size_t total_mistakes = 0;
  std::size_t epochs = 0;
  bool converged = false;

  std::vector<std::size_t> order(X.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    ++epochs;
    if (config_.shuffle_each_epoch) rng.shuffle(order);
    std::size_t epoch_mistakes = 0;
    for (auto index : order) {
      const auto& x = X[index];
      double score = 0.0;
      for (std::size_t j = 0; j < dim; ++j) score += w[j] * x[j];
      if (static_cast<double>(y[index]) * score <= config_.margin) {
        const double step = static_cast<double>(y[index]);
        for (std::size_t j = 0; j < dim; ++j) w[j] += step * x[j];
        ++epoch_mistakes;
      }
      if (config_.averaged)
        for (std::size_t j = 0; j < dim; ++j) w_sum[j] += w[j];
    }
    total_mistakes += epoch_mistakes;
    if (epoch_mistakes == 0) {
      converged = true;
      break;
    }
  }

  registry.counter("ml.perceptron.fits").add(1);
  registry.counter("ml.perceptron.mistakes").add(total_mistakes);
  registry.counter("ml.perceptron.epochs").add(epochs);

  PerceptronResult result;
  result.weights = config_.averaged ? w_sum : w;
  result.mistakes = total_mistakes;
  result.epochs = epochs;
  result.converged = converged;
  return result;
}

LinearModel Perceptron::fit_model(const std::vector<BitVec>& challenges,
                                  const std::vector<int>& responses,
                                  const FeatureMap& features,
                                  support::Rng& rng,
                                  PerceptronResult* stats) const {
  PITFALLS_REQUIRE(!challenges.empty(), "empty training set");
  std::vector<std::vector<double>> X;
  X.reserve(challenges.size());
  for (const auto& c : challenges) X.push_back(features(c));
  PerceptronResult result = fit(X, responses, rng);
  if (stats != nullptr) *stats = result;
  return LinearModel(challenges.front().size(), std::move(result.weights),
                     features, "perceptron hypothesis");
}

}  // namespace pitfalls::ml
