#include "ml/robust/faults.hpp"

#include <cmath>
#include <vector>

#include "support/parallel.hpp"
#include "support/require.hpp"

namespace pitfalls::ml::robust {

void validate(const FaultConfig& config) {
  PITFALLS_REQUIRE_INPUT(config.flip_rate >= 0.0 && config.flip_rate < 0.5,
                         "flip rate must be in [0, 0.5)");
  PITFALLS_REQUIRE_INPUT(config.burst_rate >= 0.0 && config.burst_rate < 1.0,
                         "burst rate must be in [0, 1)");
  PITFALLS_REQUIRE_INPUT(config.drop_rate >= 0.0 && config.drop_rate < 1.0,
                         "drop rate must be in [0, 1)");
  PITFALLS_REQUIRE_INPUT(config.metastable_sigma >= 0.0,
                         "metastability sigma must be >= 0");
  PITFALLS_REQUIRE_INPUT(config.burst_length > 0, "burst length must be > 0");
}

FaultyMembershipOracle::FaultyMembershipOracle(MembershipOracle& inner,
                                               const FaultConfig& config,
                                               std::uint64_t seed)
    : inner_(&inner),
      config_(config),
      seed_(seed),
      // Distinct stream for the per-challenge latent margins so a margin
      // draw can never collide with a per-query draw at the same index.
      margin_seed_(seed ^ 0x6d617267696e2121ULL),
      flip_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.iid_flips")),
      burst_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.burst_flips")),
      metastable_counter_(&obs::MetricsRegistry::global().counter(
          "robust.faults.metastable_flips")),
      drop_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.drops")),
      budget_counter_(&obs::MetricsRegistry::global().counter(
          "robust.budget.refusals")) {
  validate(config);
}

std::size_t FaultyMembershipOracle::num_vars() const {
  return inner_->num_vars();
}

std::size_t FaultyMembershipOracle::remaining_budget() const {
  return raw_queries_ >= config_.query_budget
             ? 0
             : config_.query_budget - raw_queries_;
}

FaultyMembershipOracle::Fault FaultyMembershipOracle::step(const BitVec& x) {
  if (raw_queries_ >= config_.query_budget) {
    budget_counter_->add(1);
    return Fault::kRefused;
  }
  // Per-query stream keyed by the raw index: the fault sequence is a pure
  // function of (seed, index, challenge) and therefore identical across
  // runs and thread counts. Draw order below is part of that contract.
  support::Rng q = support::rng_for_chunk(seed_, raw_queries_);
  ++raw_queries_;
  count_unmirrored();

  if (config_.drop_rate > 0.0 && q.bernoulli(config_.drop_rate)) {
    ++drops_;
    drop_counter_->add(1);
    return Fault::kDrop;
  }

  bool flipped = false;
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    flipped = !flipped;
    ++flips_;
    burst_counter_->add(1);
  } else if (config_.burst_rate > 0.0 && q.bernoulli(config_.burst_rate)) {
    // The starting query is the first flipped query of the burst.
    burst_remaining_ = config_.burst_length - 1;
    flipped = !flipped;
    ++flips_;
    burst_counter_->add(1);
  }

  if (config_.flip_rate > 0.0 && q.bernoulli(config_.flip_rate)) {
    flipped = !flipped;
    ++flips_;
    flip_counter_->add(1);
  }

  if (config_.metastable_sigma > 0.0) {
    // PUF noise-channel semantics (src/puf/puf.hpp): the challenge has a
    // fixed latent margin |N(0,1)|; one measurement adds N(0, sigma) noise
    // and the sign flips when the noise crosses the margin. The margin is
    // keyed by the challenge hash so repeated queries of one challenge see
    // one margin — the correlated part — while the additive noise is drawn
    // from the per-query stream — the transient part.
    support::Rng margin_rng = support::rng_for_chunk(margin_seed_, x.hash());
    const double margin = std::abs(margin_rng.gaussian());
    if (q.gaussian(0.0, config_.metastable_sigma) < -margin) {
      flipped = !flipped;
      ++flips_;
      metastable_counter_->add(1);
    }
  }
  return flipped ? Fault::kFlip : Fault::kNone;
}

void FaultyMembershipOracle::raise(Fault fault) {
  if (fault == Fault::kRefused)
    throw QueryBudgetExhaustedError("oracle query budget exhausted (lockdown)");
  if (fault == Fault::kDrop)
    throw TransientFaultError("oracle gave no response (transient fault)");
}

int FaultyMembershipOracle::query_pm(const BitVec& x) {
  const Fault fault = step(x);
  raise(fault);
  const int response = inner_->query_pm(x);
  return fault == Fault::kFlip ? -response : response;
}

void FaultyMembershipOracle::query_pm_batch(std::span<const BitVec> xs,
                                            std::span<int> out) {
  PITFALLS_REQUIRE(xs.size() == out.size(),
                   "batch spans must have equal length");
  // The fault plan first, element by element in scalar order; a lockdown
  // or a drop ends it at that element. The coins never read the inner
  // response, so deferring the inner queries to one batch call over the
  // clean prefix cannot change a single draw.
  std::vector<Fault> plan;
  plan.reserve(xs.size());
  Fault last = Fault::kNone;
  for (const BitVec& x : xs) {
    last = step(x);
    if (last == Fault::kDrop || last == Fault::kRefused) break;
    plan.push_back(last);
  }
  const std::size_t ready = plan.size();
  inner_->query_pm_batch(xs.first(ready), out.first(ready));
  for (std::size_t j = 0; j < ready; ++j)
    if (plan[j] == Fault::kFlip) out[j] = -out[j];
  if (!xs.empty()) record_batch(ready);
  raise(last);
}

}  // namespace pitfalls::ml::robust
