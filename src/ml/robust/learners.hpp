// Budgeted, gracefully-degrading runs of the library's data-driven learners
// against a (possibly faulty, throttled) oracle.
//
// Each robust_* entry point drives one src/ml learner end-to-end through
// oracle access, and all of them share one driver and one degradation
// policy: secure a held-out evaluation set first, then a training set, then
// fit with the learner's own defaults. Whatever goes wrong — budget
// lockdown mid-collection, a noise floor the learner cannot beat — the run
// returns a LearnOutcome with its best-so-far hypothesis and held-out
// accuracy instead of throwing. That makes the paper's pitfall measurable:
// the benches sweep η × budget and report where each learner's security
// conclusion flips. Every stop is a function of the queries spent, never
// of wall time.
//
// Composition: pass the oracle you want the learner to see. A bare
// FaultyMembershipOracle models the raw channel; wrap it in a
// MajorityVoteOracle to model an attacker who stabilises CRPs first.
#pragma once

#include <vector>

#include "boolfn/ltf.hpp"
#include "ml/linear_model.hpp"
#include "ml/lmn.hpp"
#include "ml/robust/outcome.hpp"
#include "ml/robust/resilient.hpp"

namespace pitfalls::ml::robust {

struct RobustLearnConfig {
  /// Oracle queries wanted for training, > 0 (the run may get fewer).
  std::size_t train_queries = 2000;
  /// Oracle queries wanted for the held-out evaluation set, secured FIRST
  /// so even a budget-exhausted run can report an accuracy.
  std::size_t holdout_queries = 200;
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

/// LMN low-degree algorithm from oracle-drawn uniform examples.
LearnOutcome<SparseFourierHypothesis> robust_lmn(
    MembershipOracle& oracle, std::size_t degree,
    const RobustLearnConfig& config, support::Rng& rng);

/// Chow-parameter estimation + LTF reconstruction (plain Chow direction,
/// no correction rounds).
LearnOutcome<boolfn::Ltf> robust_chow(MembershipOracle& oracle,
                                      const RobustLearnConfig& config,
                                      support::Rng& rng);

}  // namespace pitfalls::ml::robust
