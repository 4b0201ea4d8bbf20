// Resilient query strategies over a faulty oracle — the attacker-side
// countermeasures that turn the noisy/lossy channel of faults.hpp back into
// something the src/ml learners can consume.
//
//   * query_with_retry — bounded retry with (simulated) exponential backoff
//     for transient non-responses. Backoff is accounted in
//     `robust.retry.backoff_steps` rather than slept, since experiments run
//     on simulated hardware time.
//   * MajorityVoteOracle — adaptive repetition: each logical query is
//     answered by the majority of up to r physical votes, with r sized by
//     the Chernoff bound so the majority is wrong with probability at most
//     1 - confidence under an assumed flip rate η. Voting stops early once
//     the leading side is unassailable, so the *expected* physical cost is
//     well below r — the standard CRP-stabilisation trade the paper's
//     "noiseless and stable CRPs" presuppose, now with its query cost
//     on the meter.
#pragma once

#include "ml/robust/faults.hpp"

namespace pitfalls::ml::robust {

struct RetryPolicy {
  /// Total attempts per logical query (first try + retries).
  std::size_t max_attempts = 8;
};

/// Query `oracle` on x, retrying up to policy.max_attempts times on
/// TransientFaultError (each attempt consumes oracle budget). Rethrows
/// TransientFaultError once the attempts are spent and
/// QueryBudgetExhaustedError immediately.
int query_with_retry(MembershipOracle& oracle, const support::BitVec& x,
                     const RetryPolicy& policy = {});

/// Smallest odd vote count r with exp(-2 r (1/2 - eta)^2) <= 1 - confidence:
/// by the Chernoff–Hoeffding bound the majority of r independent votes then
/// errs with probability at most 1 - confidence. Requires eta in [0, 0.5)
/// and confidence in (0, 1).
std::size_t chernoff_votes(double eta, double confidence);

struct MajorityVoteConfig {
  /// The flip rate the vote count is sized for (the attacker's noise
  /// estimate — need not equal the channel's true η).
  double assumed_flip_rate = 0.1;
  /// Target probability that a logical answer is correct.
  double confidence = 0.99;
  RetryPolicy retry{};
};

/// Decorator answering each logical query by Chernoff-sized majority vote,
/// capped at 10001 votes, over the inner (presumably faulty) oracle.
/// Logical queries are counted on this oracle; physical queries on the
/// inner one. Vote counts land in the `robust.vote.*` metrics.
class MajorityVoteOracle final : public MembershipOracle {
 public:
  MajorityVoteOracle(MembershipOracle& inner, const MajorityVoteConfig& config);

  std::size_t num_vars() const override;
  int query_pm(const BitVec& x) override;

  /// Deliberately the scalar loop: votes stop early per logical query and
  /// the inner fault streams are keyed by raw query index, so batching the
  /// votes would change both votes_cast and every downstream fault. The
  /// override exists to book oracle.batch.* accounting and to make that
  /// byte-identity decision explicit.
  void query_pm_batch(std::span<const BitVec> xs, std::span<int> out) override;

  /// The Chernoff-sized per-query vote budget in force.
  std::size_t votes_per_query() const { return votes_per_query_; }
  /// Physical votes actually cast (early stopping keeps this below
  /// queries() * votes_per_query()).
  std::size_t votes_cast() const { return votes_cast_; }

 private:
  MembershipOracle* inner_;
  MajorityVoteConfig config_;
  std::size_t votes_per_query_;
  std::size_t votes_cast_ = 0;
  obs::Counter* vote_counter_;
};

}  // namespace pitfalls::ml::robust
