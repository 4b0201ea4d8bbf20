#include "ml/online.hpp"

#include <cmath>

#include "support/require.hpp"

namespace pitfalls::ml {

// --------------------------------------------------------------- Winnow

Winnow::Winnow(std::size_t n, double alpha)
    : weights_(n, 1.0), threshold_(static_cast<double>(n)), alpha_(alpha) {
  PITFALLS_REQUIRE(n >= 1, "need at least one variable");
  PITFALLS_REQUIRE(alpha > 1.0, "promotion factor must exceed 1");
}

double Winnow::score(const BitVec& x) const {
  PITFALLS_REQUIRE(x.size() == weights_.size(), "input arity mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i)
    if (x.get(i)) sum += weights_[i];
  return sum;
}

int Winnow::predict(const BitVec& x) const {
  // Disjunction true -> bit 1 -> chi -1.
  return score(x) >= threshold_ ? -1 : +1;
}

bool Winnow::observe(const BitVec& x, int label) {
  PITFALLS_REQUIRE(label == +1 || label == -1, "label must be +/-1");
  const int predicted = predict(x);
  if (predicted == label) return false;
  note_mistake();
  if (label == -1) {
    // False negative: promote the active weights.
    for (std::size_t i = 0; i < weights_.size(); ++i)
      if (x.get(i)) weights_[i] *= alpha_;
  } else {
    // False positive: demote the active weights.
    for (std::size_t i = 0; i < weights_.size(); ++i)
      if (x.get(i)) weights_[i] /= alpha_;
  }
  return true;
}

std::unique_ptr<BooleanFunction> Winnow::hypothesis() const {
  auto weights = weights_;
  const double threshold = threshold_;
  return std::make_unique<boolfn::FunctionView>(
      weights_.size(),
      [weights, threshold](const BitVec& x) {
        double sum = 0.0;
        for (std::size_t i = 0; i < weights.size(); ++i)
          if (x.get(i)) sum += weights[i];
        return sum >= threshold ? -1 : +1;
      },
      "winnow hypothesis");
}

// -------------------------------------------------------------- Halving

HalvingLearner::HalvingLearner(
    std::vector<std::shared_ptr<const BooleanFunction>> hypotheses)
    : hypotheses_(std::move(hypotheses)) {
  PITFALLS_REQUIRE(!hypotheses_.empty(), "need at least one hypothesis");
  for (const auto& h : hypotheses_) {
    PITFALLS_REQUIRE(h != nullptr, "null hypothesis");
    PITFALLS_REQUIRE(h->num_vars() == hypotheses_.front()->num_vars(),
                     "hypotheses must share the arity");
  }
  alive_.assign(hypotheses_.size(), true);
  alive_count_ = hypotheses_.size();
}

std::size_t HalvingLearner::num_vars() const {
  return hypotheses_.front()->num_vars();
}

int HalvingLearner::predict(const BitVec& x) const {
  std::int64_t vote = 0;
  for (std::size_t i = 0; i < hypotheses_.size(); ++i)
    if (alive_[i]) vote += hypotheses_[i]->eval_pm(x);
  return vote < 0 ? -1 : +1;
}

bool HalvingLearner::observe(const BitVec& x, int label) {
  PITFALLS_REQUIRE(label == +1 || label == -1, "label must be +/-1");
  const int predicted = predict(x);
  // Discard every surviving hypothesis that errs on (x, label); keep at
  // least the consistent ones. (If the target is in the class, it always
  // survives.)
  for (std::size_t i = 0; i < hypotheses_.size(); ++i) {
    if (alive_[i] && hypotheses_[i]->eval_pm(x) != label) {
      alive_[i] = false;
      --alive_count_;
    }
  }
  PITFALLS_ENSURE(alive_count_ > 0,
                  "target not in the hypothesis class (version space empty)");
  if (predicted == label) return false;
  note_mistake();
  return true;
}

std::unique_ptr<BooleanFunction> HalvingLearner::hypothesis() const {
  // Majority vote of the survivors, snapshotted.
  std::vector<std::shared_ptr<const BooleanFunction>> survivors;
  for (std::size_t i = 0; i < hypotheses_.size(); ++i)
    if (alive_[i]) survivors.push_back(hypotheses_[i]);
  return std::make_unique<boolfn::FunctionView>(
      num_vars(),
      [survivors](const BitVec& x) {
        std::int64_t vote = 0;
        for (const auto& h : survivors) vote += h->eval_pm(x);
        return vote < 0 ? -1 : +1;
      },
      "halving majority vote");
}

std::size_t HalvingLearner::surviving() const { return alive_count_; }

// -------------------------------------------------------- online -> PAC

OnlineToPacResult online_to_pac(OnlineLearner& learner,
                                const BooleanFunction& target,
                                std::size_t mistake_bound, double eps,
                                double delta, support::Rng& rng,
                                std::size_t max_examples) {
  PITFALLS_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
  PITFALLS_REQUIRE(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
  PITFALLS_REQUIRE(learner.num_vars() == target.num_vars(),
                   "learner/target arity mismatch");

  const std::size_t required = static_cast<std::size_t>(std::ceil(
      std::log((static_cast<double>(mistake_bound) + 1.0) / delta) / eps));

  OnlineToPacResult result;
  std::size_t quiet = 0;
  const std::size_t n = target.num_vars();
  for (std::size_t t = 0; t < max_examples; ++t) {
    BitVec x(n);
    rng.fill_coins(x);
    const int label = target.eval_pm(x);
    ++result.examples_used;
    if (learner.observe(x, label)) {
      quiet = 0;  // hypothesis changed; restart the survival count
    } else {
      ++quiet;
      if (quiet >= required) {
        result.hypothesis = learner.hypothesis();
        result.mistakes = learner.mistakes();
        result.converged = true;
        return result;
      }
    }
  }
  result.hypothesis = learner.hypothesis();
  result.mistakes = learner.mistakes();
  result.converged = false;
  return result;
}

}  // namespace pitfalls::ml
