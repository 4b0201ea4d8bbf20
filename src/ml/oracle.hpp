// Attacker access models (Section IV of the paper) as oracle interfaces.
//
//   * MembershipOracle — the attacker picks the input (chosen-challenge /
//     chosen-plaintext access). Every call is counted: query complexity is
//     the currency all of Table I trades in.
//   * EquivalenceOracle — the attacker proposes a hypothesis and receives a
//     counterexample or "equivalent". Angluin [22] showed this can be
//     simulated with random examples; SampledEquivalenceOracle implements
//     exactly that simulation (so "EQ is unrealistic for hardware" is not a
//     valid objection — the paper's Section IV point).
#pragma once

#include <limits>
#include <optional>
#include <span>

#include "boolfn/boolean_function.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

using boolfn::BooleanFunction;
using support::BitVec;

class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;

  virtual std::size_t num_vars() const = 0;

  /// One chosen-input query, +/-1 result. Increments the query counter.
  virtual int query_pm(const BitVec& x) = 0;

  /// F2 view of the same query: +1 -> 0, -1 -> 1.
  bool query_f2(const BitVec& x) { return query_pm(x) < 0; }

  /// Batched chosen-input queries: out[i] = query_pm(xs[i]) element-wise,
  /// spans of equal length. Every element is counted exactly once
  /// (saturating, mirrored into "oracle.membership_queries"), and one batch
  /// call is booked into the oracle.batch.* metrics. Overrides may route the
  /// batch to a bit-sliced target but must stay element-wise identical to
  /// the scalar loop. The base implementation is the scalar loop.
  virtual void query_pm_batch(std::span<const BitVec> xs, std::span<int> out) {
    PITFALLS_REQUIRE(xs.size() == out.size(),
                     "batch spans must have equal length");
    if (xs.empty()) return;
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = query_pm(xs[i]);
    record_batch(xs.size());
  }

  /// Queries since construction.
  std::size_t queries() const { return queries_; }

 protected:
  /// Saturating (never wrapping) increments, mirrored into the process-wide
  /// metrics registry.
  void count() {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    if (queries_ != kMax) ++queries_;
    counter_->add(1);
  }

  /// count() without the process-wide metrics mirror, for decorators
  /// (FaultyMembershipOracle, MajorityVoteOracle, store::RecordingOracle):
  /// only the oracle that asks the target books "oracle.membership_queries",
  /// so the global counter is an honest count of physical oracle traffic. A
  /// query a journal answers books store.snapshot.replayed_queries instead.
  void count_unmirrored() {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    if (queries_ != kMax) ++queries_;
  }

  /// Bulk count() for batch overrides: k elements, each counted once, with
  /// the same saturation and metrics mirroring as k scalar count() calls.
  void count(std::size_t k) {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    queries_ = k > kMax - queries_ ? kMax : queries_ + k;
    counter_->add(k);
  }

  /// Book one batch call of `k` elements into the oracle.batch.* metrics
  /// (calls/elements counters plus the batch-size histogram). Counting of
  /// the elements themselves stays with count()/count(k).
  void record_batch(std::size_t k) {
    batch_calls_->add(1);
    batch_elements_->add(k);
    batch_size_->observe(static_cast<double>(k));
  }

 private:
  std::size_t queries_ = 0;
  obs::Counter* counter_ =
      &obs::MetricsRegistry::global().counter("oracle.membership_queries");
  obs::Counter* batch_calls_ =
      &obs::MetricsRegistry::global().counter("oracle.batch.calls");
  obs::Counter* batch_elements_ =
      &obs::MetricsRegistry::global().counter("oracle.batch.elements");
  obs::Histogram* batch_size_ =
      &obs::MetricsRegistry::global().histogram("oracle.batch.size");
};

/// Membership access to a concrete function (the unlocked-oracle setting of
/// the SAT attack, or direct CRP access to a PUF).
class FunctionMembershipOracle final : public MembershipOracle {
 public:
  explicit FunctionMembershipOracle(const BooleanFunction& f) : f_(&f) {}
  /// The oracle only references the function; a temporary would dangle.
  explicit FunctionMembershipOracle(BooleanFunction&&) = delete;

  std::size_t num_vars() const override { return f_->num_vars(); }
  int query_pm(const BitVec& x) override {
    count();
    return f_->eval_pm(x);
  }

  /// Routes the whole batch to the function's (possibly bit-sliced)
  /// eval_pm_batch; counting is identical to xs.size() scalar queries.
  void query_pm_batch(std::span<const BitVec> xs,
                      std::span<int> out) override {
    PITFALLS_REQUIRE(xs.size() == out.size(),
                     "batch spans must have equal length");
    if (xs.empty()) return;
    count(xs.size());
    record_batch(xs.size());
    f_->eval_pm_batch(xs, out);
  }

 private:
  const BooleanFunction* f_;
};

class EquivalenceOracle {
 public:
  virtual ~EquivalenceOracle() = default;

  /// A point where hypothesis and target disagree, or nullopt if the oracle
  /// considers them equivalent.
  virtual std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) = 0;

  /// Calls since construction.
  std::size_t calls() const { return calls_; }

 protected:
  void count_call() {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    if (calls_ != kMax) ++calls_;
    counter_->add(1);
  }

 private:
  std::size_t calls_ = 0;
  obs::Counter* counter_ =
      &obs::MetricsRegistry::global().counter("oracle.equivalence_calls");
};

/// Exact equivalence via exhaustive sweep — only for small arities; the
/// yardstick tests compare the sampled simulation against.
class ExhaustiveEquivalenceOracle final : public EquivalenceOracle {
 public:
  explicit ExhaustiveEquivalenceOracle(const BooleanFunction& target);
  /// The oracle only references the target; a temporary would dangle.
  explicit ExhaustiveEquivalenceOracle(BooleanFunction&&) = delete;

  std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) override;

 private:
  const BooleanFunction* target_;
};

/// Angluin's EQ-from-random-examples simulation: the i-th call draws
/// ceil((ln(1/delta) + (i+1) ln 2) / eps) uniform samples; if all agree the
/// hypothesis is declared equivalent. Guarantees: with probability >= 1-delta
/// every accepted hypothesis is eps-accurate (union bound over calls).
class SampledEquivalenceOracle final : public EquivalenceOracle {
 public:
  SampledEquivalenceOracle(const BooleanFunction& target, double eps,
                           double delta, support::Rng& rng);
  /// The oracle only references the target; a temporary would dangle.
  SampledEquivalenceOracle(BooleanFunction&&, double, double,
                           support::Rng&) = delete;

  std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) override;

  std::size_t samples_used() const { return samples_used_; }

 private:
  const BooleanFunction* target_;
  double eps_;
  double delta_;
  support::Rng* rng_;
  std::size_t samples_used_ = 0;
};

}  // namespace pitfalls::ml
