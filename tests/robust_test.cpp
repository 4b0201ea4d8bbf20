// Tests for the fault-injection oracle layer and the budgeted,
// gracefully-degrading learner runs (DESIGN.md §9): deterministic fault
// replay across thread counts, budget lockdowns that degrade instead of
// throwing, Chernoff-sized majority voting, and retry-with-backoff.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "boolfn/boolean_function.hpp"
#include "ml/features.hpp"
#include "ml/robust/learners.hpp"
#include "puf/arbiter.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls;
using namespace pitfalls::ml::robust;
using pitfalls::boolfn::FunctionView;
using pitfalls::ml::FunctionMembershipOracle;
using pitfalls::ml::MembershipOracle;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// Restores the ambient pool size when a test that resizes it exits (same
// guard parallel_test.cpp uses), so test order never leaks state.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(support::pool_thread_count()) {}
  ~PoolSizeGuard() { support::set_pool_thread_count(saved_); }

 private:
  std::size_t saved_;
};

template <typename Make>
void expect_identical_across_thread_counts(Make&& make) {
  PoolSizeGuard guard;
  support::set_pool_thread_count(1);
  const auto reference = make();
  for (const std::size_t threads : {2, 4, 8}) {
    support::set_pool_thread_count(threads);
    EXPECT_EQ(make(), reference) << "threads=" << threads;
  }
}

std::vector<BitVec> random_challenges(std::size_t count, std::size_t n,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BitVec c(n);
    for (std::size_t b = 0; b < n; ++b) c.set(b, rng.coin());
    out.push_back(std::move(c));
  }
  return out;
}

// ------------------------------------------------------- fault injection

TEST(FaultyOracle, NoFaultsPassesThrough) {
  Rng rng(1);
  const puf::ArbiterPuf puf(12, 0.0, rng);
  FunctionMembershipOracle inner(puf);
  FaultyMembershipOracle oracle(inner, FaultConfig{}, 7);
  for (const auto& c : random_challenges(200, 12, 2))
    EXPECT_EQ(oracle.query_pm(c), puf.eval_pm(c));
  EXPECT_EQ(oracle.queries(), 200u);
  EXPECT_EQ(oracle.faults_injected(), 0u);
}

TEST(FaultyOracle, IidFlipRateMatchesEta) {
  const FunctionView one(8, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.flip_rate = 0.2;
  FaultyMembershipOracle oracle(inner, config, 11);
  std::size_t flipped = 0;
  for (const auto& c : random_challenges(10000, 8, 3))
    if (oracle.query_pm(c) < 0) ++flipped;
  const double rate = static_cast<double>(flipped) / 10000.0;
  EXPECT_NEAR(rate, 0.2, 0.03);
  EXPECT_EQ(oracle.faults_injected(), flipped);
}

TEST(FaultyOracle, BudgetTripsExactlyAndStaysTripped) {
  const FunctionView one(6, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.query_budget = 5;
  FaultyMembershipOracle oracle(inner, config, 13);
  const BitVec c(6);
  for (int i = 0; i < 5; ++i) EXPECT_NO_THROW(oracle.query_pm(c));
  EXPECT_EQ(oracle.remaining_budget(), 0u);
  EXPECT_THROW(oracle.query_pm(c), QueryBudgetExhaustedError);
  EXPECT_THROW(oracle.query_pm(c), QueryBudgetExhaustedError);
}

TEST(FaultyOracle, DropsConsumeBudgetAndThrowTransient) {
  const FunctionView one(6, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.drop_rate = 0.5;
  FaultyMembershipOracle oracle(inner, config, 17);
  std::size_t drops = 0;
  const BitVec c(6);
  for (int i = 0; i < 200; ++i) {
    try {
      oracle.query_pm(c);
    } catch (const TransientFaultError&) {
      ++drops;
    }
  }
  EXPECT_GT(drops, 50u);
  EXPECT_LT(drops, 150u);
  EXPECT_EQ(oracle.responses_dropped(), drops);
  // Dropped rounds still consumed physical budget.
  EXPECT_EQ(oracle.raw_queries(), 200u);
}

TEST(FaultyOracle, BurstFaultsFlipConsecutiveResponses) {
  const FunctionView one(6, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.burst_rate = 0.01;
  config.burst_length = 5;
  FaultyMembershipOracle oracle(inner, config, 19);
  std::vector<int> responses;
  const BitVec c(6);
  for (int i = 0; i < 3000; ++i) responses.push_back(oracle.query_pm(c));
  // Find the longest run of flipped (-1) responses: bursts make runs of
  // (at least) burst_length, which iid noise at this volume would not.
  std::size_t longest = 0;
  std::size_t current = 0;
  for (const int r : responses) {
    current = r < 0 ? current + 1 : 0;
    longest = std::max(longest, current);
  }
  EXPECT_GE(longest, 5u);
  EXPECT_GT(oracle.faults_injected(), 0u);
}

TEST(FaultyOracle, MetastabilityIsChallengeCorrelated) {
  const FunctionView one(16, [](const BitVec&) { return +1; }, "one");
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.metastable_sigma = 0.25;
  FaultyMembershipOracle oracle(inner, config, 23);
  // Re-measure each challenge 40 times: metastable (small-margin)
  // challenges flip often, large-margin ones essentially never — the
  // error is attached to the challenge, not the query.
  const auto challenges = random_challenges(40, 16, 5);
  std::size_t always_stable = 0;
  std::size_t unstable = 0;
  for (const auto& c : challenges) {
    std::size_t flips = 0;
    for (int rep = 0; rep < 40; ++rep)
      if (oracle.query_pm(c) < 0) ++flips;
    if (flips == 0) ++always_stable;
    if (flips >= 8) ++unstable;
  }
  EXPECT_GT(always_stable, 5u);
  EXPECT_GT(unstable, 2u);
}

TEST(FaultyOracle, IdenticalSeedReplaysIdenticalFaultSequence) {
  Rng setup(3);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  const auto challenges = random_challenges(600, 16, 7);
  FaultConfig config;
  config.flip_rate = 0.1;
  config.drop_rate = 0.05;
  config.burst_rate = 0.01;
  config.metastable_sigma = 0.5;
  // The full observable channel (responses, drops, fault tallies) must be
  // byte-identical for every PITFALLS_THREADS value: queries are serial and
  // each fault is a pure function of (seed, query index, challenge).
  expect_identical_across_thread_counts([&] {
    FunctionMembershipOracle inner(puf);
    FaultyMembershipOracle oracle(inner, config, 42);
    std::vector<int> sequence;
    sequence.reserve(challenges.size());
    for (const auto& c : challenges) {
      try {
        sequence.push_back(oracle.query_pm(c));
      } catch (const TransientFaultError&) {
        sequence.push_back(0);
      }
    }
    return std::make_tuple(sequence, oracle.faults_injected(),
                           oracle.responses_dropped());
  });
}

// --------------------------------------------------- resilient strategies

TEST(ChernoffVotes, SizesAreOddAndMonotone) {
  EXPECT_EQ(chernoff_votes(0.1, 0.99) % 2, 1u);
  EXPECT_EQ(chernoff_votes(0.1, 0.99), 15u);
  EXPECT_GE(chernoff_votes(0.2, 0.99), chernoff_votes(0.1, 0.99));
  EXPECT_GE(chernoff_votes(0.1, 0.999), chernoff_votes(0.1, 0.99));
  EXPECT_THROW(chernoff_votes(0.5, 0.99), std::invalid_argument);
}

TEST(MajorityVote, RecoversTargetConfidenceAtEtaTenPercent) {
  Rng setup(5);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  FunctionMembershipOracle inner(puf);
  FaultConfig config;
  config.flip_rate = 0.1;
  FaultyMembershipOracle faulty(inner, config, 29);
  MajorityVoteOracle voter(faulty, {.assumed_flip_rate = 0.1,
                                    .confidence = 0.99});
  const auto challenges = random_challenges(1500, 16, 9);
  std::size_t correct = 0;
  for (const auto& c : challenges)
    if (voter.query_pm(c) == puf.eval_pm(c)) ++correct;
  // Chernoff sizing guarantees >= 0.99 per-query confidence; leave margin
  // for sampling error at 1500 queries.
  EXPECT_GE(static_cast<double>(correct) / 1500.0, 0.98);
  EXPECT_EQ(voter.queries(), 1500u);
}

TEST(MajorityVote, EarlyStoppingNeverCastsNeedlessVotes) {
  Rng setup(6);
  const puf::ArbiterPuf puf(12, 0.0, setup);
  FunctionMembershipOracle inner(puf);  // noise-free channel
  MajorityVoteOracle voter(inner, {.assumed_flip_rate = 0.1,
                                   .confidence = 0.99});
  EXPECT_EQ(voter.votes_per_query(), 15u);
  for (const auto& c : random_challenges(100, 12, 11))
    (void)voter.query_pm(c);
  // Unanimous votes stop at a bare majority: 8 of 15.
  EXPECT_EQ(voter.votes_cast(), 800u);
  EXPECT_EQ(inner.queries(), 800u);
}

TEST(RetryWithBackoff, SurvivesTransientDropsAndGivesUpCleanly) {
  const FunctionView one(6, [](const BitVec&) { return +1; }, "one");

  // A channel that always drops: retry must give up after max_attempts.
  class AlwaysDropOracle final : public MembershipOracle {
   public:
    std::size_t num_vars() const override { return 6; }
    int query_pm(const BitVec&) override {
      count();
      throw TransientFaultError("drop");
    }
  } always_drop;
  EXPECT_THROW(query_with_retry(always_drop, BitVec(6), {.max_attempts = 4}),
               TransientFaultError);
  EXPECT_EQ(always_drop.queries(), 4u);

  // A lossy-but-alive channel: bounded retry rides through.
  FunctionMembershipOracle inner(one);
  FaultConfig config;
  config.drop_rate = 0.5;
  FaultyMembershipOracle faulty(inner, config, 31);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(query_with_retry(faulty, BitVec(6), {.max_attempts = 16}), +1);
}

// --------------------------------------------- graceful degradation

RobustLearnConfig small_config(std::size_t train, std::size_t holdout) {
  RobustLearnConfig config;
  config.train_queries = train;
  config.holdout_queries = holdout;
  return config;
}

TEST(RobustLearners, EveryLearnerDegradesToBudgetExhausted) {
  Rng setup(8);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  const auto make_oracle = [&](FunctionMembershipOracle& inner) {
    FaultConfig config;
    config.query_budget = 150;  // below holdout(100) + train(1000)
    return FaultyMembershipOracle(inner, config, 37);
  };
  const RobustLearnConfig config = small_config(1000, 100);

  {
    FunctionMembershipOracle inner(puf);
    auto oracle = make_oracle(inner);
    Rng rng(101);
    const auto outcome =
        robust_perceptron(oracle, ml::parity_with_bias, config, rng);
    EXPECT_EQ(outcome.status, LearnStatus::budget_exhausted);
    ASSERT_TRUE(outcome.best_hypothesis.has_value());
    EXPECT_GT(outcome.diagnostics.at("heldout_accuracy"), 0.0);
    EXPECT_EQ(outcome.queries_spent, 150u);
  }
  {
    FunctionMembershipOracle inner(puf);
    auto oracle = make_oracle(inner);
    Rng rng(103);
    const auto outcome = robust_lmn(oracle, 2, config, rng);
    EXPECT_EQ(outcome.status, LearnStatus::budget_exhausted);
    EXPECT_TRUE(outcome.best_hypothesis.has_value());
  }
  {
    FunctionMembershipOracle inner(puf);
    auto oracle = make_oracle(inner);
    Rng rng(104);
    const auto outcome = robust_chow(oracle, config, rng);
    EXPECT_EQ(outcome.status, LearnStatus::budget_exhausted);
    EXPECT_TRUE(outcome.best_hypothesis.has_value());
  }
}

TEST(RobustLearners, StarvedBudgetStillReturnsWithoutHypothesis) {
  Rng setup(9);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  FunctionMembershipOracle inner(puf);
  FaultConfig fc;
  fc.query_budget = 20;  // dies inside the held-out collection
  FaultyMembershipOracle oracle(inner, fc, 41);
  Rng rng(110);
  const auto outcome = robust_perceptron(oracle, ml::parity_with_bias,
                                         small_config(1000, 100), rng);
  EXPECT_EQ(outcome.status, LearnStatus::budget_exhausted);
  EXPECT_FALSE(outcome.best_hypothesis.has_value());
  EXPECT_EQ(outcome.queries_spent, 20u);
}

TEST(RobustLearners, RunWithoutTrainingQueriesIsRefused) {
  // Asking for no training data could only ever end budget_exhausted with
  // the budget untouched; the driver refuses it before any query.
  Rng setup(10);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  FunctionMembershipOracle oracle(puf);
  Rng rng(111);
  EXPECT_THROW(robust_perceptron(oracle, ml::parity_with_bias,
                                 small_config(0, 100), rng),
               std::invalid_argument);
  EXPECT_EQ(oracle.queries(), 0u);
}

TEST(RobustLearners, CleanChannelConverges) {
  Rng setup(14);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  FunctionMembershipOracle oracle(puf);
  Rng rng(114);
  const auto outcome = robust_perceptron(oracle, ml::parity_with_bias,
                                         small_config(2000, 400), rng);
  EXPECT_EQ(outcome.status, LearnStatus::converged);
  EXPECT_GE(outcome.diagnostics.at("heldout_accuracy"), 0.9);
  EXPECT_EQ(outcome.queries_spent, 2400u);
}

TEST(RobustLearners, UnreachableTargetReportsNoiseCeiling) {
  // A 2-XOR arbiter PUF is not a halfspace in parity features: the
  // Perceptron completes its epochs with full budget and still plateaus —
  // the run must say noise_ceiling, not pretend convergence.
  Rng setup(16);
  const puf::XorArbiterPuf puf =
      puf::XorArbiterPuf::independent(12, 2, 0.0, setup);
  FunctionMembershipOracle oracle(puf);
  Rng rng(116);
  const auto outcome = robust_perceptron(oracle, ml::parity_with_bias,
                                         small_config(2000, 400), rng);
  EXPECT_EQ(outcome.status, LearnStatus::noise_ceiling);
  EXPECT_LT(outcome.diagnostics.at("heldout_accuracy"), 0.9);
}

// ------------------------------------- outcome identity across threads

TEST(RobustLearners, OutcomeIsByteIdenticalAcrossThreadCounts) {
  Rng setup(17);
  const puf::ArbiterPuf puf(16, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.05;
  fc.drop_rate = 0.02;
  fc.query_budget = 2500;

  expect_identical_across_thread_counts([&] {
    FunctionMembershipOracle inner(puf);
    FaultyMembershipOracle oracle(inner, fc, 51);
    Rng rng(117);
    const auto outcome = robust_perceptron(oracle, ml::parity_with_bias,
                                           small_config(1500, 300), rng);
    return std::make_tuple(
        static_cast<int>(outcome.status), outcome.queries_spent,
        outcome.diagnostics,
        outcome.best_hypothesis ? outcome.best_hypothesis->weights()
                                : std::vector<double>{});
  });

  // The LMN path funnels through the pooled Fourier estimators, so it
  // exercises the chunk-order reduction contract end to end.
  expect_identical_across_thread_counts([&] {
    FunctionMembershipOracle inner(puf);
    FaultyMembershipOracle oracle(inner, fc, 53);
    Rng rng(118);
    const auto outcome = robust_lmn(oracle, 2, small_config(1500, 300), rng);
    return std::make_tuple(
        static_cast<int>(outcome.status), outcome.queries_spent,
        outcome.diagnostics,
        outcome.best_hypothesis ? outcome.best_hypothesis->coefficients()
                                : std::vector<double>{});
  });
}

}  // namespace
