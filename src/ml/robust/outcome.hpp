// Graceful degradation: the shared result type every robust learner run
// returns. A learner facing a throttled, noisy oracle must never throw and
// never loop — it reports HOW it stopped, its best-so-far hypothesis, what
// the attempt cost in queries, and diagnostics (held-out accuracy, fault
// and retry counts) so a bench row can state whether the security
// conclusion survives the realistic channel.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

namespace pitfalls::ml::robust {

enum class LearnStatus {
  /// The learner finished and the hypothesis met the target accuracy.
  converged,
  /// The oracle's query budget tripped before the learner had what it
  /// needed; best_hypothesis is trained on whatever was collected.
  budget_exhausted,
  /// The learner ran to completion inside its budgets but the hypothesis
  /// still misses the target — the channel's noise floor won.
  noise_ceiling,
};

constexpr const char* to_string(LearnStatus status) {
  switch (status) {
    case LearnStatus::converged:
      return "converged";
    case LearnStatus::budget_exhausted:
      return "budget_exhausted";
    case LearnStatus::noise_ceiling:
      return "noise_ceiling";
  }
  return "unknown";
}

template <typename Hypothesis>
struct LearnOutcome {
  LearnStatus status = LearnStatus::budget_exhausted;
  /// Best hypothesis the run produced; empty only when the budget died
  /// before a single training example was secured.
  std::optional<Hypothesis> best_hypothesis;
  /// Oracle queries the run consumed (delta of the oracle handed in — for
  /// a MajorityVoteOracle these are logical queries; physical votes are in
  /// the diagnostics / metrics).
  std::size_t queries_spent = 0;
  /// Named scalars: heldout_accuracy, train_examples, dropped_queries, ...
  /// (std::map so iteration order — and any JSON rendering — is stable).
  std::map<std::string, double> diagnostics;

  bool ok() const { return status == LearnStatus::converged; }
};

}  // namespace pitfalls::ml::robust
