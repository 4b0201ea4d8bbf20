#include "ml/robust/resilient.hpp"

#include <algorithm>
#include <cmath>

#include "support/require.hpp"

namespace pitfalls::ml::robust {

int query_with_retry(MembershipOracle& oracle, const support::BitVec& x,
                     const RetryPolicy& policy) {
  PITFALLS_REQUIRE(policy.max_attempts > 0, "need at least one attempt");
  auto& registry = obs::MetricsRegistry::global();
  std::size_t backoff = 1;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return oracle.query_pm(x);
    } catch (const TransientFaultError&) {
      registry.counter("robust.retry.attempts").add(1);
      if (attempt + 1 >= policy.max_attempts) {
        registry.counter("robust.retry.failures").add(1);
        throw;
      }
      // Simulated exponential backoff: the wait is booked, not slept.
      registry.counter("robust.retry.backoff_steps").add(backoff);
      backoff *= 2;
    }
  }
}

std::size_t chernoff_votes(double eta, double confidence) {
  PITFALLS_REQUIRE(eta >= 0.0 && eta < 0.5,
                   "majority voting needs a flip rate below 1/2");
  PITFALLS_REQUIRE(confidence > 0.0 && confidence < 1.0,
                   "confidence must be in (0,1)");
  const double gap = 0.5 - eta;
  const double r = std::log(1.0 / (1.0 - confidence)) / (2.0 * gap * gap);
  auto votes = static_cast<std::size_t>(std::ceil(r));
  votes = std::max<std::size_t>(votes, 1);
  return votes % 2 == 0 ? votes + 1 : votes;
}

MajorityVoteOracle::MajorityVoteOracle(MembershipOracle& inner,
                                       const MajorityVoteConfig& config)
    : inner_(&inner),
      config_(config),
      votes_per_query_(std::min<std::size_t>(
          chernoff_votes(config.assumed_flip_rate, config.confidence),
          10001)),
      vote_counter_(
          &obs::MetricsRegistry::global().counter("robust.vote.votes")) {}

std::size_t MajorityVoteOracle::num_vars() const {
  return inner_->num_vars();
}

int MajorityVoteOracle::query_pm(const BitVec& x) {
  count_unmirrored();
  const std::size_t r = votes_per_query_;
  const std::size_t majority = r / 2 + 1;
  std::size_t plus = 0;
  std::size_t minus = 0;
  // Early stop once one side holds an unassailable majority of the full r
  // votes: the outcome equals the full-r majority by construction.
  while (plus < majority && minus < majority) {
    const int vote = query_with_retry(*inner_, x, config_.retry);
    ++votes_cast_;
    vote_counter_->add(1);
    if (vote > 0)
      ++plus;
    else
      ++minus;
  }
  obs::MetricsRegistry::global()
      .histogram("robust.vote.votes_per_query")
      .observe(static_cast<double>(plus + minus));
  return plus >= majority ? +1 : -1;
}

void MajorityVoteOracle::query_pm_batch(std::span<const BitVec> xs,
                                        std::span<int> out) {
  PITFALLS_REQUIRE(xs.size() == out.size(),
                   "batch spans must have equal length");
  if (xs.empty()) return;
  // Scalar per logical query on purpose — see the header comment: early
  // stopping and index-keyed inner fault streams make any vote batching
  // observable. Faults propagate exactly as in a caller-side scalar loop.
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = query_pm(xs[i]);
  record_batch(xs.size());
}

}  // namespace pitfalls::ml::robust
