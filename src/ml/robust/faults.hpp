// Fault-injection layer for oracle access — the realistic hardware channel
// of Sections IV–V made explicit. Every learner in src/ml was written
// against a perfect, unlimited MembershipOracle; real CRP interfaces are
// noisy (footnote 1's metastability/aging/measurement noise), lossy
// (transient non-responses) and throttled (lockdown-style lifetime budgets,
// src/puf/lockdown.hpp). FaultyMembershipOracle decorates any
// MembershipOracle with exactly those defects so the query-complexity
// numbers the paper trades in can be measured under the adversary model the
// hardware actually presents.
//
// Determinism contract (DESIGN.md §9): every injected fault is a pure
// function of (seed, raw query index, challenge), derived through the same
// SplitMix64 stream construction the parallel layer uses
// (support::rng_for_chunk). Oracle queries are serial — learners consume
// answers one at a time — so the fault sequence is byte-identical for every
// PITFALLS_THREADS value, and identical seeds replay identical fault
// sequences regardless of what the surrounding code does with the pool. No
// coin reads the inner response, which is what lets query_pm_batch plan a
// batch's faults before asking, and lets a resumed run re-walk the channel
// over a journal of the token's answers (store::RecordingOracle sits
// beneath the channel) instead of persisting the channel's position.
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>

#include "ml/oracle.hpp"

namespace pitfalls::ml::robust {

/// Base class for everything the faulty channel can signal.
class OracleFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The interface produced no response this round (metastable read-out,
/// dropped authentication frame). The round still consumed budget; retrying
/// the same challenge may succeed.
class TransientFaultError final : public OracleFaultError {
 public:
  using OracleFaultError::OracleFaultError;
};

/// The lifetime query budget is spent — the lockdown tripped. No further
/// query will ever be answered.
class QueryBudgetExhaustedError final : public OracleFaultError {
 public:
  using OracleFaultError::OracleFaultError;
};

struct FaultConfig {
  /// i.i.d. classification-noise rate η: each answered query flips with
  /// this probability, independently of everything else.
  double flip_rate = 0.0;

  /// Probability (per answered query) that a burst fault starts; for the
  /// next `burst_length` queries every response is flipped — the correlated
  /// error pattern of supply glitches / temperature steps.
  double burst_rate = 0.0;
  std::size_t burst_length = 8;

  /// Challenge-correlated metastability, reusing the PUF noise-channel
  /// semantics of src/puf/puf.hpp: each challenge carries a fixed latent
  /// margin |N(0,1)| (derived from its hash), each measurement adds
  /// N(0, metastable_sigma) noise, and the response flips when the noise
  /// crosses the margin. Small-margin challenges are persistently
  /// unstable; large-margin ones are rock solid — unlike flip_rate, the
  /// error probability is attached to the challenge, not the query.
  double metastable_sigma = 0.0;

  /// Probability that a query yields no response at all (the round is
  /// consumed, TransientFaultError is thrown).
  double drop_rate = 0.0;

  /// Hard lifetime budget on physical queries (lockdown interface). Once
  /// spent, every query throws QueryBudgetExhaustedError.
  std::size_t query_budget = std::numeric_limits<std::size_t>::max();
};

/// Throws std::invalid_argument unless `config` is a channel the fault
/// layer can model: flip_rate in [0, 0.5), burst_rate and drop_rate in
/// [0, 1), metastable_sigma >= 0, burst_length > 0. The oracle constructor
/// and the serve plane's job parser share it, so a spec is refused at
/// submission exactly when its channel could not be built. The message is
/// the range alone, with no source location (PITFALLS_REQUIRE_INPUT): it
/// reaches a client's error line.
void validate(const FaultConfig& config);

/// Decorator injecting the FaultConfig defects into any MembershipOracle.
/// All fault events are mirrored into the `robust.faults.*` metrics. Its
/// queries() counts raw rounds, drops included, without mirroring them into
/// oracle.membership_queries: the oracle beneath that asks the target books
/// those, and a round answered from a journal reaches no target.
class FaultyMembershipOracle final : public MembershipOracle {
 public:
  FaultyMembershipOracle(MembershipOracle& inner, const FaultConfig& config,
                         std::uint64_t seed);

  std::size_t num_vars() const override;
  int query_pm(const BitVec& x) override;

  /// Batched queries with the *exact* scalar fault sequence: fault coins are
  /// a pure function of (seed, raw query index, challenge) and never depend
  /// on the inner response, so the batch splits into a sequential fault-plan
  /// pass (drawing each element's per-query stream in scalar order) followed
  /// by one inner batch query for the clean prefix. Drop faults and budget
  /// exhaustion throw exactly as the scalar loop would — elements before the
  /// faulting one are answered into `out` first, elements after it are not
  /// queried at all.
  void query_pm_batch(std::span<const BitVec> xs, std::span<int> out) override;

  const FaultConfig& config() const { return config_; }

  /// Physical queries still answerable before the lockdown trips.
  std::size_t remaining_budget() const;

  /// Raw (attempted) physical queries, including dropped responses.
  std::size_t raw_queries() const { return raw_queries_; }

  /// Responses flipped by any channel (iid + burst + metastable).
  std::size_t faults_injected() const { return flips_; }
  std::size_t responses_dropped() const { return drops_; }

 private:
  /// What the fault plan decided for one raw round.
  enum class Fault { kNone, kFlip, kDrop, kRefused };

  /// The fault plan of the next raw round for challenge `x`: the lockdown
  /// check, then the round's coins in the contract's order (drop, burst,
  /// flip, metastable), with the tallies and robust.* metrics booked and
  /// the round counted. kRefused leaves the round unspent. query_pm and
  /// query_pm_batch share it, so their fault sequences cannot drift.
  Fault step(const BitVec& x);
  /// Throw what the scalar loop signals for a round with no answer (kDrop,
  /// kRefused); return for the others.
  static void raise(Fault fault);

  MembershipOracle* inner_;
  FaultConfig config_;
  std::uint64_t seed_;
  std::uint64_t margin_seed_;
  std::size_t raw_queries_ = 0;
  std::size_t burst_remaining_ = 0;
  std::size_t flips_ = 0;
  std::size_t drops_ = 0;
  obs::Counter* flip_counter_;
  obs::Counter* burst_counter_;
  obs::Counter* metastable_counter_;
  obs::Counter* drop_counter_;
  obs::Counter* budget_counter_;
};

}  // namespace pitfalls::ml::robust
