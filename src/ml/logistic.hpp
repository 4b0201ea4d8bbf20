// Logistic regression — the workhorse of the *empirical* modeling attacks
// on arbiter-PUF variants (Ruehrmair et al. [8]). Included both as a
// baseline against the provable learners and to demonstrate the paper's
// point that empirical success under one sampling regime says nothing about
// PAC guarantees under another.
//
// Plain batch gradient descent with an adaptive per-dimension step (RProp),
// which is what the original PUF modeling-attack papers used.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/linear_model.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

struct LogisticConfig {
  std::size_t max_iters = 300;
};

struct LogisticResult {
  std::size_t iterations = 0;
  double final_loss = 0.0;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticConfig config = {}) : config_(config) {}

  /// Fits a linear model over `features` to the +/-1-labelled CRPs. RProp
  /// runs for at most max_iters iterations and stops early once the
  /// gradient norm falls below 1e-6.
  LinearModel fit_model(const std::vector<BitVec>& challenges,
                        const std::vector<int>& responses,
                        const FeatureMap& features, support::Rng& rng,
                        LogisticResult* stats = nullptr) const;

 private:
  LogisticConfig config_;
};

}  // namespace pitfalls::ml
