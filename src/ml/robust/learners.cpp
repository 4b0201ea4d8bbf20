#include "ml/robust/learners.hpp"

#include <type_traits>
#include <utility>
#include <vector>

#include "ml/chow.hpp"
#include "ml/perceptron.hpp"
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

/// Named run scalars (LearnOutcome::diagnostics).
using Diagnostics = std::map<std::string, double>;

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
                         Diagnostics diagnostics) {
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

/// The driver's front half: held-out set first (so a starved run can still
/// report an accuracy), then the training set.
struct Datasets {
  Examples holdout;
  Examples train;
  bool budget_hit = false;
  Diagnostics diagnostics;
};

Datasets collect_datasets(MembershipOracle& oracle,
                          const RobustLearnConfig& config, support::Rng& rng) {
  Datasets data;
  data.holdout =
      collect_examples(oracle, config.holdout_queries, RetryPolicy{}, rng);
  if (!data.holdout.budget_hit)
    data.train =
        collect_examples(oracle, config.train_queries, RetryPolicy{}, rng);
  data.budget_hit = data.holdout.budget_hit || data.train.budget_hit;
  data.diagnostics["train_examples"] =
      static_cast<double>(data.train.challenges.size());
  data.diagnostics["dropped_queries"] =
      static_cast<double>(data.holdout.dropped + data.train.dropped);
  return data;
}

/// The one driver behind every robust_* entry point: collect, then
/// `fit(train, diagnostics)` when at least one training example arrived
/// (the fit returns the hypothesis and writes the learner's own
/// diagnostics), then the degradation policy of assemble(). `rng` draws
/// the held-out challenges, then the training challenges, then whatever
/// the fit draws.
template <typename Fit>
auto run_budgeted(MembershipOracle& oracle, const RobustLearnConfig& config,
                  support::Rng& rng, Fit&& fit) {
  using Hypothesis = std::invoke_result_t<Fit&, const Examples&, Diagnostics&>;
  PITFALLS_REQUIRE(config.train_queries > 0,
                   "a budgeted run needs at least one training query");
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, rng);
  std::optional<Hypothesis> hypothesis;
  if (!data.train.challenges.empty())
    hypothesis = fit(data.train, data.diagnostics);
  return assemble(std::move(hypothesis), data.budget_hit, data.holdout,
                  oracle.queries() - before, std::move(data.diagnostics));
}

}  // namespace

LearnOutcome<LinearModel> robust_perceptron(MembershipOracle& oracle,
                                            const FeatureMap& features,
                                            const RobustLearnConfig& config,
                                            support::Rng& rng) {
  return run_budgeted(
      oracle, config, rng,
      [&](const Examples& train, Diagnostics& diagnostics) {
        PerceptronResult stats;
        LinearModel model = Perceptron().fit_model(
            train.challenges, train.responses, features, rng, &stats);
        diagnostics["epochs"] = static_cast<double>(stats.epochs);
        diagnostics["mistakes"] = static_cast<double>(stats.mistakes);
        return model;
      });
}

LearnOutcome<SparseFourierHypothesis> robust_lmn(
    MembershipOracle& oracle, std::size_t degree,
    const RobustLearnConfig& config, support::Rng& rng) {
  return run_budgeted(
      oracle, config, rng,
      [&](const Examples& train, Diagnostics& diagnostics) {
        const LmnLearner learner({.degree = degree, .prune_below = 0.0});
        SparseFourierHypothesis hypothesis =
            learner.learn_from_data(train.challenges, train.responses);
        diagnostics["fourier_terms"] =
            static_cast<double>(hypothesis.num_terms());
        return hypothesis;
      });
}

LearnOutcome<boolfn::Ltf> robust_chow(MembershipOracle& oracle,
                                      const RobustLearnConfig& config,
                                      support::Rng& rng) {
  return run_budgeted(
      oracle, config, rng,
      [](const Examples& train, Diagnostics& diagnostics) {
        const ChowParameters chow =
            estimate_chow(train.challenges, train.responses);
        diagnostics["degree1_weight"] = chow.degree1_weight();
        return reconstruct_ltf(chow);
      });
}

}  // namespace pitfalls::ml::robust
