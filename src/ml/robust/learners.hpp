// Budgeted, gracefully-degrading runs of the library's learners against a
// (possibly faulty, throttled) oracle.
//
// Each robust_* entry point drives one src/ml learner end-to-end through
// oracle access: it first secures a held-out evaluation set, then a
// training set, then fits under an iteration cap. Whatever goes wrong —
// budget lockdown mid-collection, an iteration cap tripping, a noise floor
// the learner cannot beat — the run returns a LearnOutcome with its
// best-so-far hypothesis and held-out accuracy instead of throwing. That
// makes the paper's pitfall measurable: the benches sweep η × budget and
// report where each learner's security conclusion flips. Every stop is a
// function of the queries and iterations spent, never of wall time.
//
// Composition: pass the oracle you want the learner to see. A bare
// FaultyMembershipOracle models the raw channel; wrap it in a
// MajorityVoteOracle to model an attacker who stabilises CRPs first.
#pragma once

#include <vector>

#include "boolfn/anf.hpp"
#include "boolfn/ltf.hpp"
#include "ml/linear_model.hpp"
#include "ml/lmn.hpp"
#include "ml/lstar.hpp"
#include "ml/robust/outcome.hpp"
#include "ml/robust/resilient.hpp"

namespace pitfalls::ml::robust {

struct RobustLearnConfig {
  /// Oracle queries wanted for training (the run may get fewer).
  std::size_t train_queries = 2000;
  /// Oracle queries wanted for the held-out evaluation set, secured FIRST
  /// so even a budget-exhausted run can report an accuracy.
  std::size_t holdout_queries = 200;
  /// Learner iteration cap (epochs / gradient iterations / Chow correction
  /// rounds / L* equivalence rounds). 0 keeps the learner's default.
  std::size_t max_iterations = 0;
  RetryPolicy retry{};
};

/// Uniform-challenge examples pulled through an oracle, with the defect
/// bookkeeping a degraded run reports.
struct Examples {
  std::vector<BitVec> challenges;
  std::vector<int> responses;
  /// Challenges abandoned after retry exhaustion; their budget stays spent.
  std::size_t dropped = 0;
  /// The lockdown tripped: the oracle will never answer again.
  bool budget_hit = false;
};

/// The budgeted random-example adversary: draw up to `m` uniform
/// challenges (n coins of `rng` each) and query each through
/// query_with_retry. A challenge whose attempts all drop is abandoned and
/// the next one is drawn fresh; the lockdown ends collection with whatever
/// was gathered. Strictly serial — part of the determinism contract: the
/// example stream is a function of (rng, oracle) alone, never of the
/// thread pool.
Examples collect_examples(MembershipOracle& oracle, std::size_t m,
                          const RetryPolicy& retry, support::Rng& rng);

/// Perceptron over an explicit feature map (parity features make an
/// arbiter PUF exactly separable — Table I's first row).
LearnOutcome<LinearModel> robust_perceptron(MembershipOracle& oracle,
                                            const FeatureMap& features,
                                            const RobustLearnConfig& config,
                                            support::Rng& rng);

/// Logistic regression (RProp), the empirical modeling-attack baseline.
LearnOutcome<LinearModel> robust_logistic(MembershipOracle& oracle,
                                          const FeatureMap& features,
                                          const RobustLearnConfig& config,
                                          support::Rng& rng);

/// LMN low-degree algorithm from oracle-drawn uniform examples.
LearnOutcome<SparseFourierHypothesis> robust_lmn(
    MembershipOracle& oracle, std::size_t degree,
    const RobustLearnConfig& config, support::Rng& rng);

/// Chow-parameter estimation + LTF reconstruction; max_iterations maps to
/// the correction rounds of the [25] scheme.
LearnOutcome<boolfn::Ltf> robust_chow(MembershipOracle& oracle,
                                      const RobustLearnConfig& config,
                                      support::Rng& rng);

/// Bounded-degree ANF interpolation (Corollary 2's query pattern). Queries
/// the points 1_S, so train_queries is ignored: the query need is
/// sum_{i<=degree} C(n,i) plus the held-out set. Persistent non-responses
/// leave the affected coefficients at zero and are reported in the
/// diagnostics.
LearnOutcome<boolfn::AnfPolynomial> robust_anf(MembershipOracle& oracle,
                                               std::size_t degree,
                                               const RobustLearnConfig& config,
                                               support::Rng& rng);

/// Budget guard around any DfaTeacher: counts membership queries against
/// `mq_budget` and equivalence rounds against `eq_round_cap`, throwing
/// QueryBudgetExhaustedError / IterationCapError on violation. Also
/// remembers the last hypothesis it saw an equivalence query for — the
/// best-so-far a degraded L* run surfaces.
class BudgetedDfaTeacher final : public DfaTeacher {
 public:
  /// eq_round_cap = 0 means no cap. Queries and rounds are tracked on this
  /// wrapper (mq_used/eq_rounds), NOT mirrored into the global DFA-oracle
  /// counters — the inner teacher already counts there.
  BudgetedDfaTeacher(DfaTeacher& inner, std::size_t mq_budget,
                     std::size_t eq_round_cap);

  std::size_t alphabet_size() const override;
  bool member(const Word& word) override;
  std::optional<Word> equivalent(const Dfa& hypothesis) override;

  std::size_t mq_used() const { return mq_used_; }
  std::size_t eq_rounds() const { return eq_rounds_; }
  const std::optional<Dfa>& last_hypothesis() const {
    return last_hypothesis_;
  }

 private:
  DfaTeacher* inner_;
  std::size_t mq_budget_;
  std::size_t eq_round_cap_;
  std::size_t mq_used_ = 0;
  std::size_t eq_rounds_ = 0;
  std::optional<Dfa> last_hypothesis_;
};

/// L* under a membership-query budget (train_queries) and an
/// equivalence-round cap (max_iterations). No held-out bar applies: with an
/// accepting teacher the run is exact, otherwise degraded.
LearnOutcome<Dfa> robust_lstar(DfaTeacher& teacher,
                               const RobustLearnConfig& config);

}  // namespace pitfalls::ml::robust
