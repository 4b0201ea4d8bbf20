// The batched query plane (DESIGN.md §11): for every PUF simulator and
// oracle decorator the batch entry points must be byte-identical to the
// per-element scalar loop — same responses, same rng draw sequence, same
// query accounting, same fault sequence — for empty, odd-sized and
// multi-block batches, at every thread count.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ml/oracle.hpp"
#include "ml/robust/faults.hpp"
#include "ml/robust/resilient.hpp"
#include "obs/metrics.hpp"
#include "puf/arbiter.hpp"
#include "puf/bistable_ring.hpp"
#include "puf/crp.hpp"
#include "puf/feed_forward.hpp"
#include "puf/interpose.hpp"
#include "puf/puf.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls;
using support::BitVec;
using support::Rng;

std::vector<BitVec> random_challenges(std::size_t n, std::size_t m,
                                      Rng& rng) {
  std::vector<BitVec> xs;
  xs.reserve(m);
  for (std::size_t s = 0; s < m; ++s) {
    BitVec x(n);
    for (std::size_t b = 0; b < n; ++b) x.set(b, rng.coin());
    xs.push_back(std::move(x));
  }
  return xs;
}

// Batch sizes covering the bit-slicing block structure: empty, single,
// odd partial block, exactly one 64-block, and a multi-block remainder.
const std::size_t kBatchSizes[] = {0, 1, 7, 64, 130};

// eval_pm_batch must equal the per-element scalar loop exactly.
void expect_ideal_batch_parity(const puf::Puf& puf, std::uint64_t seed) {
  for (const std::size_t m : kBatchSizes) {
    Rng rng(seed);
    const auto xs = random_challenges(puf.num_vars(), m, rng);
    std::vector<int> scalar(m), batch(m, 0);
    for (std::size_t i = 0; i < m; ++i) scalar[i] = puf.eval_pm(xs[i]);
    puf.eval_pm_batch(xs, batch);
    EXPECT_EQ(batch, scalar) << puf.describe() << " m=" << m;
  }
}

// eval_noisy_batch must equal the scalar loop *including* the rng draw
// sequence: identical responses from same-seeded streams, and both streams
// must land in the same state afterwards.
void expect_noisy_batch_parity(const puf::Puf& puf, std::uint64_t seed) {
  for (const std::size_t m : kBatchSizes) {
    Rng gen(seed);
    const auto xs = random_challenges(puf.num_vars(), m, gen);
    std::vector<int> scalar(m), batch(m, 0);
    Rng a(seed + 1), b(seed + 1);
    for (std::size_t i = 0; i < m; ++i) scalar[i] = puf.eval_noisy(xs[i], a);
    puf.eval_noisy_batch(xs, batch, b);
    EXPECT_EQ(batch, scalar) << puf.describe() << " m=" << m;
    for (int draws = 0; draws < 64; ++draws)
      ASSERT_EQ(a.coin(), b.coin())
          << puf.describe() << " m=" << m << ": rng streams diverged";
  }
}

// ----------------------------------------------------------- PUF parity

TEST(BatchPuf, ArbiterMatchesScalar) {
  Rng rng(11);
  const puf::ArbiterPuf puf(40, 0.05, rng);
  expect_ideal_batch_parity(puf, 101);
  expect_noisy_batch_parity(puf, 102);
  // 64 stages: the challenge fills its one word exactly.
  const puf::ArbiterPuf full_word(64, 0.0, rng);
  expect_ideal_batch_parity(full_word, 103);
}

TEST(BatchPuf, XorArbiterMatchesScalar) {
  Rng rng(12);
  std::vector<puf::ArbiterPuf> chains;
  for (int k = 0; k < 4; ++k) chains.emplace_back(32, 0.05, rng);
  const puf::XorArbiterPuf puf(std::move(chains));
  expect_ideal_batch_parity(puf, 201);
  expect_noisy_batch_parity(puf, 202);
  const puf::XorArbiterPuf full_word =
      puf::XorArbiterPuf::independent(64, 4, 0.0, rng);
  expect_ideal_batch_parity(full_word, 203);
}

TEST(BatchPuf, FeedForwardMatchesScalar) {
  Rng rng(13);
  const puf::FeedForwardArbiterPuf puf(48, 5, 0.05, rng);
  expect_ideal_batch_parity(puf, 301);
  expect_noisy_batch_parity(puf, 302);
}

TEST(BatchPuf, InterposeMatchesScalar) {
  Rng rng(14);
  const puf::InterposePuf puf(32, 2, 2, 0.05, rng);
  expect_ideal_batch_parity(puf, 401);
  // No batch override for the noisy channel (the upper draw feeds the lower
  // challenge) — the inherited scalar default must still satisfy parity.
  expect_noisy_batch_parity(puf, 402);
}

TEST(BatchPuf, BistableRingMatchesScalar) {
  Rng rng(15);
  puf::BistableRingConfig config = puf::BistableRingConfig::paper_instance(32);
  config.noise_sigma = 0.05;
  const puf::BistableRingPuf puf(config, rng);
  expect_ideal_batch_parity(puf, 501);
  expect_noisy_batch_parity(puf, 502);
}

TEST(BatchPuf, WideArbiterCrossesWordBoundary) {
  // >64 stages: the challenge itself spans two BitVec words, exercising the
  // plane-building path over multiple words.
  Rng rng(16);
  const puf::ArbiterPuf puf(100, 0.0, rng);
  expect_ideal_batch_parity(puf, 601);
}

// ----------------------------------------------------- membership oracle

TEST(BatchOracle, FunctionOracleCountsOncePerElement) {
  Rng rng(21);
  const puf::ArbiterPuf puf(24, 0.0, rng);
  ml::FunctionMembershipOracle oracle(puf);

  const auto xs = random_challenges(24, 130, rng);
  std::vector<int> batch(xs.size()), scalar(xs.size());
  oracle.query_pm_batch(xs, batch);
  EXPECT_EQ(oracle.queries(), xs.size());

  for (std::size_t i = 0; i < xs.size(); ++i)
    scalar[i] = oracle.query_pm(xs[i]);
  EXPECT_EQ(batch, scalar);
  EXPECT_EQ(oracle.queries(), 2 * xs.size());
}

TEST(BatchOracle, EmptyBatchIsFree) {
  Rng rng(22);
  const puf::ArbiterPuf puf(16, 0.0, rng);
  ml::FunctionMembershipOracle oracle(puf);
  const std::uint64_t calls_before =
      obs::MetricsRegistry::global().counter("oracle.batch.calls").value();
  std::vector<BitVec> xs;
  std::vector<int> out;
  oracle.query_pm_batch(xs, out);
  EXPECT_EQ(oracle.queries(), 0u);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("oracle.batch.calls").value(),
      calls_before);
}

TEST(BatchOracle, BatchMetricsAreBooked) {
  Rng rng(23);
  const puf::ArbiterPuf puf(16, 0.0, rng);
  ml::FunctionMembershipOracle oracle(puf);
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t calls_before =
      registry.counter("oracle.batch.calls").value();
  const std::uint64_t elements_before =
      registry.counter("oracle.batch.elements").value();

  const auto xs = random_challenges(16, 7, rng);
  std::vector<int> out(xs.size());
  oracle.query_pm_batch(xs, out);
  EXPECT_EQ(registry.counter("oracle.batch.calls").value(), calls_before + 1);
  EXPECT_EQ(registry.counter("oracle.batch.elements").value(),
            elements_before + 7);
}

// --------------------------------------------------- faulty oracle parity

// Drives a FaultyMembershipOracle over `xs`, element by element through
// query_pm, recording each answer (0 marks a dropped response).
std::vector<int> drive_scalar(ml::robust::FaultyMembershipOracle& oracle,
                              const std::vector<BitVec>& xs) {
  std::vector<int> out(xs.size(), 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    try {
      out[i] = oracle.query_pm(xs[i]);
    } catch (const ml::robust::TransientFaultError&) {
      out[i] = 0;
    }
  }
  return out;
}

// Drives the same workload through query_pm_batch, resuming after each
// TransientFaultError. Per the batch contract the elements before the
// faulting one are answered; the faulting element consumed one raw query,
// so the answered-prefix length is (raw_queries delta - 1).
std::vector<int> drive_batch(ml::robust::FaultyMembershipOracle& oracle,
                             const std::vector<BitVec>& xs) {
  std::vector<int> out(xs.size(), 0);
  std::size_t i = 0;
  while (i < xs.size()) {
    const std::span<const BitVec> tail(xs.data() + i, xs.size() - i);
    const std::span<int> tail_out(out.data() + i, xs.size() - i);
    const std::size_t raw_before = oracle.raw_queries();
    try {
      oracle.query_pm_batch(tail, tail_out);
      break;
    } catch (const ml::robust::TransientFaultError&) {
      const std::size_t answered = oracle.raw_queries() - raw_before - 1;
      out[i + answered] = 0;  // the dropped element
      i += answered + 1;
    }
  }
  return out;
}

TEST(BatchFaults, BatchReplaysScalarFaultSequence) {
  Rng rng(31);
  const puf::ArbiterPuf puf(20, 0.0, rng);
  ml::FunctionMembershipOracle inner_a(puf), inner_b(puf);
  ml::robust::FaultConfig config;
  config.flip_rate = 0.05;
  config.burst_rate = 0.02;
  config.burst_length = 4;
  config.metastable_sigma = 0.3;
  config.drop_rate = 0.1;
  ml::robust::FaultyMembershipOracle scalar(inner_a, config, 777);
  ml::robust::FaultyMembershipOracle batch(inner_b, config, 777);

  const auto xs = random_challenges(20, 200, rng);
  const auto scalar_out = drive_scalar(scalar, xs);
  const auto batch_out = drive_batch(batch, xs);

  EXPECT_EQ(batch_out, scalar_out);
  EXPECT_EQ(batch.raw_queries(), scalar.raw_queries());
  EXPECT_EQ(batch.faults_injected(), scalar.faults_injected());
  EXPECT_EQ(batch.responses_dropped(), scalar.responses_dropped());
  EXPECT_EQ(inner_b.queries(), inner_a.queries());
}

TEST(BatchFaults, BudgetExhaustsAtTheSameElement) {
  Rng rng(32);
  const puf::ArbiterPuf puf(20, 0.0, rng);
  ml::FunctionMembershipOracle inner_a(puf), inner_b(puf);
  ml::robust::FaultConfig config;
  config.query_budget = 25;
  ml::robust::FaultyMembershipOracle scalar(inner_a, config, 99);
  ml::robust::FaultyMembershipOracle batch(inner_b, config, 99);

  const auto xs = random_challenges(20, 40, rng);
  std::vector<int> scalar_out(xs.size(), 0);
  std::size_t scalar_answered = 0;
  try {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      scalar_out[i] = scalar.query_pm(xs[i]);
      ++scalar_answered;
    }
    FAIL() << "scalar loop should exhaust the budget";
  } catch (const ml::robust::QueryBudgetExhaustedError&) {
  }

  std::vector<int> batch_out(xs.size(), 0);
  EXPECT_THROW(batch.query_pm_batch(xs, batch_out),
               ml::robust::QueryBudgetExhaustedError);
  EXPECT_EQ(scalar_answered, config.query_budget);
  EXPECT_EQ(batch.raw_queries(), scalar.raw_queries());
  for (std::size_t i = 0; i < scalar_answered; ++i)
    EXPECT_EQ(batch_out[i], scalar_out[i]) << "i=" << i;
}

TEST(BatchFaults, MajorityVoteBatchMatchesScalarVoteForVote) {
  Rng rng(33);
  const puf::ArbiterPuf puf(20, 0.0, rng);
  ml::FunctionMembershipOracle inner_a(puf), inner_b(puf);
  ml::robust::FaultConfig config;
  config.flip_rate = 0.1;
  ml::robust::FaultyMembershipOracle faulty_a(inner_a, config, 5);
  ml::robust::FaultyMembershipOracle faulty_b(inner_b, config, 5);
  ml::robust::MajorityVoteConfig vote;
  vote.assumed_flip_rate = 0.1;
  vote.confidence = 0.95;
  ml::robust::MajorityVoteOracle scalar(faulty_a, vote);
  ml::robust::MajorityVoteOracle batch(faulty_b, vote);

  const auto xs = random_challenges(20, 50, rng);
  std::vector<int> scalar_out(xs.size()), batch_out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    scalar_out[i] = scalar.query_pm(xs[i]);
  batch.query_pm_batch(xs, batch_out);

  EXPECT_EQ(batch_out, scalar_out);
  EXPECT_EQ(batch.votes_cast(), scalar.votes_cast());
  EXPECT_EQ(faulty_b.raw_queries(), faulty_a.raw_queries());
}

// ------------------------------------------------- chunk/batch composition

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

TEST(BatchCompose, CollectUniformLabelsMatchScalarEvaluation) {
  Rng rng(51);
  const puf::ArbiterPuf puf(32, 0.0, rng);
  Rng collect_rng(52);
  const puf::CrpSet crps = puf::CrpSet::collect_uniform(puf, 500, collect_rng);
  ASSERT_EQ(crps.size(), 500u);
  for (std::size_t i = 0; i < crps.size(); ++i)
    ASSERT_EQ(crps.response(i), puf.eval_pm(crps.challenge(i))) << "i=" << i;
}

TEST(BatchCompose, CollectorsAreThreadCountInvariant) {
  Rng rng(53);
  const puf::ArbiterPuf puf(32, 0.02, rng);
  expect_identical_across_thread_counts([&] {
    Rng r(54);
    const auto crps = puf::CrpSet::collect_uniform(puf, 700, r);
    return crps.responses();
  });
  expect_identical_across_thread_counts([&] {
    Rng r(55);
    const auto crps = puf::CrpSet::collect_noisy(puf, 700, r);
    return crps.responses();
  });
  expect_identical_across_thread_counts([&] {
    Rng r(56);
    const auto crps = puf::CrpSet::collect_stable(puf, 200, 3, r);
    return crps.responses();
  });
}

TEST(BatchCompose, AccuracyIsThreadCountInvariant) {
  PoolSizeGuard guard;
  Rng rng(57);
  const puf::ArbiterPuf puf(24, 0.0, rng);
  const puf::ArbiterPuf model(24, 0.0, rng);
  Rng collect_rng(58);
  const puf::CrpSet crps = puf::CrpSet::collect_uniform(puf, 900, collect_rng);
  expect_identical_across_thread_counts([&] {
    return crps.accuracy_of(model);
  });
  // The batched accuracy path must agree with a plain scalar count.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < crps.size(); ++i)
    if (model.eval_pm(crps.challenge(i)) == crps.response(i)) ++agree;
  support::set_pool_thread_count(1);
  EXPECT_DOUBLE_EQ(crps.accuracy_of(model),
                   static_cast<double>(agree) /
                       static_cast<double>(crps.size()));
}

}  // namespace
