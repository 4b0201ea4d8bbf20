#include "ml/xor_model.hpp"

#include <sstream>

#include "ml/portable_tanh.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

XorChainModel::XorChainModel(std::size_t num_vars,
                             std::vector<std::vector<double>> chain_weights,
                             FeatureMap features)
    : num_vars_(num_vars),
      weights_(std::move(chain_weights)),
      features_(std::move(features)) {
  PITFALLS_REQUIRE(!weights_.empty(), "need at least one chain");
  for (const auto& w : weights_)
    PITFALLS_REQUIRE(w.size() == weights_.front().size() && !w.empty(),
                     "chain weight dimensions must match");
  PITFALLS_REQUIRE(static_cast<bool>(features_), "a feature map is required");
}

double XorChainModel::soft_response(const BitVec& x) const {
  PITFALLS_REQUIRE(x.size() == num_vars_, "input arity mismatch");
  const auto phi = features_(x);
  PITFALLS_REQUIRE(phi.size() == weights_.front().size(),
                   "feature dimension mismatch");
  double product = 1.0;
  for (const auto& w : weights_) {
    double score = 0.0;
    for (std::size_t i = 0; i < phi.size(); ++i) score += w[i] * phi[i];
    product *= portable_tanh(score);
  }
  return product;
}

int XorChainModel::eval_pm(const BitVec& x) const {
  PITFALLS_REQUIRE(x.size() == num_vars_, "input arity mismatch");
  const auto phi = features_(x);
  PITFALLS_REQUIRE(phi.size() == weights_.front().size(),
                   "feature dimension mismatch");
  int product = 1;
  for (const auto& w : weights_) {
    double score = 0.0;
    for (std::size_t i = 0; i < phi.size(); ++i) score += w[i] * phi[i];
    product *= score < 0.0 ? -1 : +1;
  }
  return product;
}

std::string XorChainModel::describe() const {
  std::ostringstream os;
  os << weights_.size() << "-chain XOR model";
  return os.str();
}

}  // namespace pitfalls::ml
