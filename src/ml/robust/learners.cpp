#include "ml/robust/learners.hpp"

#include <utility>
#include <vector>

#include "ml/chow.hpp"
#include "ml/logistic.hpp"
#include "ml/perceptron.hpp"
#include "support/combinatorics.hpp"
#include "support/require.hpp"

namespace pitfalls::ml::robust {

Examples collect_examples(MembershipOracle& oracle, std::size_t m,
                          const RetryPolicy& retry, support::Rng& rng) {
  Examples out;
  const std::size_t n = oracle.num_vars();
  out.challenges.reserve(m);
  out.responses.reserve(m);
  while (out.challenges.size() < m) {
    BitVec c(n);
    rng.fill_coins(c);
    try {
      const int r = query_with_retry(oracle, c, retry);
      out.challenges.push_back(std::move(c));
      out.responses.push_back(r);
    } catch (const TransientFaultError&) {
      ++out.dropped;  // this challenge is lost; budget was still consumed
    } catch (const QueryBudgetExhaustedError&) {
      out.budget_hit = true;
      break;
    }
  }
  return out;
}

namespace {

/// Held-out accuracy at or above which a completed run counts as
/// converged; below it the run reports noise_ceiling.
constexpr double kTargetAccuracy = 0.9;

/// Status per the shared degradation policy: the budget lockdown dominates
/// (the run can never get more data), then the held-out verdict. A
/// completed run with no held-out set (holdout_queries = 0) counts as
/// converged — there is nothing to refute it with.
template <typename H>
LearnOutcome<H> assemble(std::optional<H> hypothesis, bool budget_hit,
                         const Examples& holdout, std::size_t queries_spent,
                         std::map<std::string, double> diagnostics) {
  LearnOutcome<H> out;
  out.queries_spent = queries_spent;
  double heldout = -1.0;
  if (hypothesis.has_value() && !holdout.challenges.empty()) {
    // Every hypothesis class here is a BooleanFunction, so score the
    // held-out set through the batch plane in one call.
    std::vector<int> predicted(holdout.challenges.size());
    hypothesis->eval_pm_batch(holdout.challenges, predicted);
    obs::observe_batch("robust.holdout", holdout.challenges.size());
    std::size_t agree = 0;
    for (std::size_t i = 0; i < holdout.challenges.size(); ++i)
      if (predicted[i] == holdout.responses[i]) ++agree;
    heldout = static_cast<double>(agree) /
              static_cast<double>(holdout.challenges.size());
    diagnostics["heldout_accuracy"] = heldout;
  }
  diagnostics["heldout_examples"] =
      static_cast<double>(holdout.challenges.size());

  if (budget_hit || !hypothesis.has_value())
    out.status = LearnStatus::budget_exhausted;
  else if (heldout < 0.0 || heldout >= kTargetAccuracy)
    out.status = LearnStatus::converged;
  else
    out.status = LearnStatus::noise_ceiling;

  out.best_hypothesis = std::move(hypothesis);
  out.diagnostics = std::move(diagnostics);

  auto& registry = obs::MetricsRegistry::global();
  registry.counter(std::string("robust.learn.outcome.") +
                   to_string(out.status))
      .add(1);
  if (out.status != LearnStatus::converged)
    registry.counter("robust.learn.degraded_completions").add(1);
  if (heldout >= 0.0)
    registry.histogram("robust.learn.heldout_accuracy").observe(heldout);
  registry.counter("robust.learn.queries_spent").add(queries_spent);
  return out;
}

/// Shared front half of the data-driven learners: held-out set first (so a
/// starved run can still report an accuracy), then the training set.
struct Datasets {
  Examples holdout;
  Examples train;
  bool budget_hit = false;
  std::map<std::string, double> diagnostics;
};

Datasets collect_datasets(MembershipOracle& oracle,
                          const RobustLearnConfig& config, support::Rng& rng) {
  Datasets data;
  data.holdout =
      collect_examples(oracle, config.holdout_queries, config.retry, rng);
  if (!data.holdout.budget_hit)
    data.train =
        collect_examples(oracle, config.train_queries, config.retry, rng);
  data.budget_hit = data.holdout.budget_hit || data.train.budget_hit;
  data.diagnostics["train_examples"] =
      static_cast<double>(data.train.challenges.size());
  data.diagnostics["dropped_queries"] =
      static_cast<double>(data.holdout.dropped + data.train.dropped);
  return data;
}

}  // namespace

LearnOutcome<LinearModel> robust_perceptron(MembershipOracle& oracle,
                                            const FeatureMap& features,
                                            const RobustLearnConfig& config,
                                            support::Rng& rng) {
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, rng);

  std::optional<LinearModel> model;
  if (!data.train.challenges.empty()) {
    PerceptronConfig pc;
    if (config.max_iterations > 0) pc.max_epochs = config.max_iterations;
    PerceptronResult stats;
    model = Perceptron(pc).fit_model(data.train.challenges,
                                     data.train.responses, features, rng,
                                     &stats);
    data.diagnostics["epochs"] = static_cast<double>(stats.epochs);
    data.diagnostics["mistakes"] = static_cast<double>(stats.mistakes);
  }
  return assemble(std::move(model), data.budget_hit, data.holdout,
                  oracle.queries() - before, std::move(data.diagnostics));
}

LearnOutcome<LinearModel> robust_logistic(MembershipOracle& oracle,
                                          const FeatureMap& features,
                                          const RobustLearnConfig& config,
                                          support::Rng& rng) {
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, rng);

  std::optional<LinearModel> model;
  if (!data.train.challenges.empty()) {
    LogisticConfig lc;
    if (config.max_iterations > 0) lc.max_iters = config.max_iterations;
    LogisticResult stats;
    model = LogisticRegression(lc).fit_model(data.train.challenges,
                                             data.train.responses, features,
                                             rng, &stats);
    data.diagnostics["iterations"] = static_cast<double>(stats.iterations);
  }
  return assemble(std::move(model), data.budget_hit, data.holdout,
                  oracle.queries() - before, std::move(data.diagnostics));
}

LearnOutcome<SparseFourierHypothesis> robust_lmn(
    MembershipOracle& oracle, std::size_t degree,
    const RobustLearnConfig& config, support::Rng& rng) {
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, rng);

  std::optional<SparseFourierHypothesis> hypothesis;
  if (!data.train.challenges.empty()) {
    const LmnLearner learner({.degree = degree, .prune_below = 0.0});
    hypothesis = learner.learn_from_data(data.train.challenges,
                                         data.train.responses);
    data.diagnostics["fourier_terms"] =
        static_cast<double>(hypothesis->num_terms());
  }
  return assemble(std::move(hypothesis), data.budget_hit, data.holdout,
                  oracle.queries() - before, std::move(data.diagnostics));
}

LearnOutcome<boolfn::Ltf> robust_chow(MembershipOracle& oracle,
                                      const RobustLearnConfig& config,
                                      support::Rng& rng) {
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, rng);

  std::optional<boolfn::Ltf> ltf;
  if (!data.train.challenges.empty()) {
    const ChowParameters chow =
        estimate_chow(data.train.challenges, data.train.responses);
    ChowReconstructionConfig rc;
    rc.correction_rounds = config.max_iterations;
    ltf = reconstruct_ltf(chow, rc, data.train.challenges);
    data.diagnostics["degree1_weight"] = chow.degree1_weight();
  }
  return assemble(std::move(ltf), data.budget_hit, data.holdout,
                  oracle.queries() - before, std::move(data.diagnostics));
}

LearnOutcome<boolfn::AnfPolynomial> robust_anf(MembershipOracle& oracle,
                                               std::size_t degree,
                                               const RobustLearnConfig& config,
                                               support::Rng& rng) {
  const std::size_t n = oracle.num_vars();
  PITFALLS_REQUIRE(degree <= n, "degree exceeds arity");
  PITFALLS_REQUIRE(support::binomial_sum(n, degree) < (1ULL << 26),
                   "query budget for this degree is impractically large");

  const std::size_t before = oracle.queries();
  Examples holdout =
      collect_examples(oracle, config.holdout_queries, config.retry, rng);

  boolfn::AnfPolynomial poly(n);
  bool budget_hit = holdout.budget_hit;
  std::size_t interpolated = 0;
  std::size_t unresolved = 0;
  if (!budget_hit) {
    // Same incremental Moebius inversion as learn_anf_bounded_degree, but
    // accumulating best-so-far: a budget stop keeps the monomials recovered
    // so far, a persistent non-response leaves that coefficient at zero
    // (counted as unresolved) instead of aborting the run.
    for (const auto& subset : support::subsets_up_to_size(n, degree)) {
      const BitVec point = support::subset_mask(n, subset);
      bool value = false;
      try {
        value = query_with_retry(oracle, point, config.retry) < 0;
      } catch (const TransientFaultError&) {
        ++unresolved;
        continue;
      } catch (const QueryBudgetExhaustedError&) {
        budget_hit = true;
        break;
      }
      for (const auto& monomial : poly.monomials())
        if (monomial != point && monomial.is_subset_of(point)) value = !value;
      if (value) poly.toggle_monomial(point);
      ++interpolated;
    }
  }

  std::map<std::string, double> diagnostics;
  diagnostics["coefficients_interpolated"] =
      static_cast<double>(interpolated);
  diagnostics["coefficients_unresolved"] = static_cast<double>(unresolved);
  diagnostics["terms"] = static_cast<double>(poly.sparsity());
  return assemble(std::optional<boolfn::AnfPolynomial>(std::move(poly)),
                  budget_hit, holdout, oracle.queries() - before,
                  std::move(diagnostics));
}

BudgetedDfaTeacher::BudgetedDfaTeacher(DfaTeacher& inner,
                                       std::size_t mq_budget,
                                       std::size_t eq_round_cap)
    : inner_(&inner), mq_budget_(mq_budget), eq_round_cap_(eq_round_cap) {}

std::size_t BudgetedDfaTeacher::alphabet_size() const {
  return inner_->alphabet_size();
}

bool BudgetedDfaTeacher::member(const Word& word) {
  if (mq_used_ >= mq_budget_) {
    obs::MetricsRegistry::global().counter("robust.budget.refusals").add(1);
    throw QueryBudgetExhaustedError("DFA membership-query budget exhausted");
  }
  ++mq_used_;
  return inner_->member(word);
}

std::optional<Word> BudgetedDfaTeacher::equivalent(const Dfa& hypothesis) {
  last_hypothesis_ = hypothesis;
  ++eq_rounds_;
  if (eq_round_cap_ > 0 && eq_rounds_ > eq_round_cap_)
    throw IterationCapError("L* equivalence-round cap exceeded");
  return inner_->equivalent(hypothesis);
}

LearnOutcome<Dfa> robust_lstar(DfaTeacher& teacher,
                               const RobustLearnConfig& config) {
  BudgetedDfaTeacher guard(teacher, config.train_queries,
                           config.max_iterations);
  LearnOutcome<Dfa> out;
  LStarStats stats;
  try {
    Dfa dfa = LStarLearner().learn(guard, &stats);
    out.status = LearnStatus::converged;
    out.best_hypothesis = std::move(dfa);
  } catch (const QueryBudgetExhaustedError&) {
    out.status = LearnStatus::budget_exhausted;
    out.best_hypothesis = guard.last_hypothesis();
  } catch (const IterationCapError&) {
    out.status = LearnStatus::iteration_cap;
    out.best_hypothesis = guard.last_hypothesis();
  }
  out.queries_spent = guard.mq_used();
  out.diagnostics["mq_used"] = static_cast<double>(guard.mq_used());
  out.diagnostics["eq_rounds"] = static_cast<double>(guard.eq_rounds());
  if (out.best_hypothesis.has_value())
    out.diagnostics["states"] =
        static_cast<double>(out.best_hypothesis->num_states());

  auto& registry = obs::MetricsRegistry::global();
  registry.counter(std::string("robust.learn.outcome.") +
                   to_string(out.status))
      .add(1);
  if (out.status != LearnStatus::converged)
    registry.counter("robust.learn.degraded_completions").add(1);
  registry.counter("robust.learn.queries_spent").add(out.queries_spent);
  return out;
}

}  // namespace pitfalls::ml::robust
