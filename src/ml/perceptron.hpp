// The Perceptron — the algorithm whose mistake bound underlies the CRP
// bound of [9] (first row of Table I), and the learner applied to the
// Chow-parameter LTF in Table II.
//
// Operates on +/-1 labels over an arbitrary real feature map. Supports the
// averaged variant (ablation: the Table II plateau is robust to it) and an
// optional fixed margin. Mistake counts are reported because the bound of
// [9] is a *mistake* bound, not a VC bound — a distinction the paper's
// Table I footnote stresses.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/linear_model.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

struct PerceptronConfig {
  std::size_t max_epochs = 64;
  bool averaged = false;
  double margin = 0.0;           // update when y * score <= margin
  bool shuffle_each_epoch = true;
};

struct PerceptronResult {
  std::vector<double> weights;
  std::size_t mistakes = 0;   // total online updates across all epochs
  std::size_t epochs = 0;     // epochs actually run
  bool converged = false;     // an epoch finished with zero mistakes
};

class Perceptron {
 public:
  explicit Perceptron(PerceptronConfig config = {}) : config_(config) {}

  /// Train on feature rows X with labels y in {-1,+1}. Rows must be
  /// non-empty and rectangular.
  PerceptronResult fit(const std::vector<std::vector<double>>& X,
                       const std::vector<int>& y, support::Rng& rng) const;

  /// Convenience: featurise challenges, train, and wrap as a LinearModel.
  LinearModel fit_model(const std::vector<BitVec>& challenges,
                        const std::vector<int>& responses,
                        const FeatureMap& features, support::Rng& rng,
                        PerceptronResult* stats = nullptr) const;

 private:
  PerceptronConfig config_;
};

}  // namespace pitfalls::ml
