// AppSAT (reference [5] of the paper): the *approximate* variant of the SAT
// attack. Instead of running the DIP loop to UNSAT, it periodically settles
// on a candidate key, estimates its error with random oracle queries, and
// stops once the estimated error drops below a threshold.
//
// This is precisely the exact-vs-approximate learning distinction of
// Rivest [2] that Section IV builds on: AppSAT is a uniform-distribution
// approximate learner, while the full SAT attack is an exact learner with
// membership queries.
//
// Both attacks grow the same key miter, so they differ only in when they
// stop asking for DIPs. The settle phase draws its random inputs from the
// caller's rng; re-seeded identically, a rerun asks the oracle the same
// questions in the same order, which is what lets a store-layer oracle
// decorator resume it byte for byte.
#pragma once

#include "attack/sat_attack.hpp"

namespace pitfalls::attack {

struct AppSatConfig {
  /// DIP iterations between settle phases.
  std::size_t dips_per_round = 4;
  /// Random oracle queries per settle phase.
  std::size_t random_queries = 32;
  /// Stop when the settle phase finds at most this error rate.
  double error_threshold = 0.02;
  /// Hard cap on settle rounds.
  std::size_t max_rounds = 64;
  /// Diversified CDCL workers racing every solver query (1 = inline
  /// solver, no parallel region); deterministic for any PITFALLS_THREADS.
  std::size_t portfolio_workers = 1;
};

struct AppSatResult {
  BitVec key;
  bool exact = false;             // DIP loop reached UNSAT before settling
  bool settled = false;           // stopped via the error threshold
  double estimated_error = 1.0;   // from the last settle phase
  std::size_t dip_iterations = 0;
  std::size_t oracle_queries = 0;  // DIP and settle queries asked of `oracle`
  std::size_t rounds = 0;
};

AppSatResult appsat(const lock::LockedCircuit& locked, CircuitOracle& oracle,
                    support::Rng& rng, const AppSatConfig& config = {});

}  // namespace pitfalls::attack
