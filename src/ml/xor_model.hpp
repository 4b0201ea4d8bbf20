// The empirical XOR-PUF modeling attack (Ruehrmair et al., CCS'10 — the
// paper's reference [8]): fit a product-of-LTFs model
//   yhat(x) = prod_{j=1..k} tanh(w_j . phi(x))
// to +/-1-labelled CRPs by gradient descent (RProp) on the logistic loss
// -log((1 + y*yhat)/2), with random restarts. This is the attack whose
// empirical success against moderate k motivated both the XOR hardening
// [7] and the provable bounds of [9] the paper scrutinises.
#pragma once

#include <vector>

#include "ml/features.hpp"
#include "boolfn/boolean_function.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

/// XOR of k linear models over a shared feature map.
class XorChainModel final : public boolfn::BooleanFunction {
 public:
  XorChainModel(std::size_t num_vars,
                std::vector<std::vector<double>> chain_weights,
                FeatureMap features);

  std::size_t num_vars() const override { return num_vars_; }
  int eval_pm(const BitVec& x) const override;
  std::string describe() const override;

  /// Smooth surrogate prod_j tanh(w_j . phi(x)) in [-1, 1].
  double soft_response(const BitVec& x) const;

  std::size_t num_chains() const { return weights_.size(); }
  const std::vector<std::vector<double>>& weights() const { return weights_; }

 private:
  std::size_t num_vars_;
  std::vector<std::vector<double>> weights_;
  FeatureMap features_;
};

struct XorModelConfig {
  std::size_t chains = 2;
  std::size_t max_iters = 400;
  std::size_t restarts = 4;
  double init_scale = 0.5;
  /// Stop a restart early once training accuracy reaches this.
  double target_train_accuracy = 0.99;
};

struct XorModelResult {
  std::size_t iterations = 0;      // across the best restart
  std::size_t restarts_used = 0;
  double train_accuracy = 0.0;     // of the returned model
};

class XorModelAttack {
 public:
  explicit XorModelAttack(XorModelConfig config) : config_(config) {}

  /// Fit the product model to the CRPs; returns the best restart's model.
  /// Defined in logistic.cpp, on the training kernels the logistic fit uses.
  XorChainModel fit(const std::vector<BitVec>& challenges,
                    const std::vector<int>& responses,
                    const FeatureMap& features, support::Rng& rng,
                    XorModelResult* stats = nullptr) const;

 private:
  XorModelConfig config_;
};

}  // namespace pitfalls::ml
