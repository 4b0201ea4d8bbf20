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

void FaultyMembershipOracle::restore_state(const State& state) {
  raw_queries_ = state.raw_queries;
  burst_remaining_ = state.burst_remaining;
  flips_ = state.flips;
  drops_ = state.drops;
}

void FaultyMembershipOracle::refill_budget(std::size_t new_budget) {
  PITFALLS_REQUIRE(new_budget >= config_.query_budget,
                   "budget refill must not shrink the lifetime budget");
  config_.query_budget = new_budget;
}

std::size_t FaultyMembershipOracle::remaining_budget() const {
  return raw_queries_ >= config_.query_budget
             ? 0
             : config_.query_budget - raw_queries_;
}

int FaultyMembershipOracle::query_pm(const BitVec& x) {
  if (raw_queries_ >= config_.query_budget) {
    budget_counter_->add(1);
    throw QueryBudgetExhaustedError(
        "oracle query budget exhausted (lockdown)");
  }
  // Per-query stream keyed by the raw index: the fault sequence is a pure
  // function of (seed, index, challenge) and therefore identical across
  // runs and thread counts. Draw order below is part of that contract.
  support::Rng q = support::rng_for_chunk(seed_, raw_queries_);
  ++raw_queries_;
  count();

  if (config_.drop_rate > 0.0 && q.bernoulli(config_.drop_rate)) {
    ++drops_;
    drop_counter_->add(1);
    throw TransientFaultError("oracle gave no response (transient fault)");
  }

  int response = inner_->query_pm(x);

  if (burst_remaining_ > 0) {
    --burst_remaining_;
    response = -response;
    ++flips_;
    burst_counter_->add(1);
  } else if (config_.burst_rate > 0.0 && q.bernoulli(config_.burst_rate)) {
    // The starting query is the first flipped query of the burst.
    burst_remaining_ = config_.burst_length - 1;
    response = -response;
    ++flips_;
    burst_counter_->add(1);
  }

  if (config_.flip_rate > 0.0 && q.bernoulli(config_.flip_rate)) {
    response = -response;
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
      response = -response;
      ++flips_;
      metastable_counter_->add(1);
    }
  }

  return response;
}

void FaultyMembershipOracle::query_pm_batch(std::span<const BitVec> xs,
                                            std::span<int> out) {
  PITFALLS_REQUIRE(xs.size() == out.size(),
                   "batch spans must have equal length");
  // Phase 1 — fault plan. Walk the elements in order, drawing each one's
  // per-query stream exactly as query_pm does (drop, burst, flip,
  // metastable). The coins never read the inner response, so deferring the
  // inner queries to one batch call cannot change a single draw. A budget
  // stop or drop ends the plan at that element, matching the scalar loop.
  enum class Stop { kNone, kBudget, kDrop };
  Stop stop = Stop::kNone;
  std::vector<char> flip(xs.size(), 0);
  std::size_t ready = 0;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    if (raw_queries_ >= config_.query_budget) {
      budget_counter_->add(1);
      stop = Stop::kBudget;
      break;
    }
    support::Rng q = support::rng_for_chunk(seed_, raw_queries_);
    ++raw_queries_;
    count();

    if (config_.drop_rate > 0.0 && q.bernoulli(config_.drop_rate)) {
      ++drops_;
      drop_counter_->add(1);
      stop = Stop::kDrop;
      break;
    }

    bool flipped = false;
    if (burst_remaining_ > 0) {
      --burst_remaining_;
      flipped = !flipped;
      ++flips_;
      burst_counter_->add(1);
    } else if (config_.burst_rate > 0.0 && q.bernoulli(config_.burst_rate)) {
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
      support::Rng margin_rng =
          support::rng_for_chunk(margin_seed_, xs[j].hash());
      const double margin = std::abs(margin_rng.gaussian());
      if (q.gaussian(0.0, config_.metastable_sigma) < -margin) {
        flipped = !flipped;
        ++flips_;
        metastable_counter_->add(1);
      }
    }

    flip[j] = flipped ? 1 : 0;
    ready = j + 1;
  }

  // Phase 2 — one inner batch for the clean prefix, then apply the planned
  // flips and re-raise the fault (if any) the scalar loop would have thrown.
  inner_->query_pm_batch(xs.first(ready), out.first(ready));
  for (std::size_t j = 0; j < ready; ++j)
    if (flip[j] != 0) out[j] = -out[j];
  if (!xs.empty()) record_batch(ready);
  if (stop == Stop::kBudget)
    throw QueryBudgetExhaustedError("oracle query budget exhausted (lockdown)");
  if (stop == Stop::kDrop)
    throw TransientFaultError("oracle gave no response (transient fault)");
}

}  // namespace pitfalls::ml::robust
