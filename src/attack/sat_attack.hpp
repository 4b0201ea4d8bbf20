// The oracle-guided SAT attack on combinational logic locking
// (Subramanyan et al., adopted by the paper's references [4], [5]).
//
// Loop: find a distinguishing input pattern (DIP) — an input on which two
// keys that agree with all previous oracle observations still disagree —
// query the unlocked oracle on it, and add the observation as a constraint.
// When no DIP exists, every remaining key is functionally equivalent to the
// oracle on all inputs, and one is extracted.
//
// The whole attack grows ONE incremental CNF: the miter is encoded once
// with a free activation variable, DIP search solves under the assumption
// "miter active", and key extraction solves the same clause set without it.
// Observations are appended as specialised constraint cones. A deterministic
// solver portfolio (sat::PortfolioSolver) can race diversified CDCL
// configurations on every query without changing any result byte. AppSAT
// (appsat.hpp) grows the same miter.
//
// The attacks see only a CircuitOracle. Crash-safe resume is a decorator
// over that oracle in the store layer (DESIGN.md §14): it answers recorded
// observations before it asks the chip, and since the solver work is
// deterministic, a resumed attack is byte-identical to an uninterrupted one.
//
// In PAC terms this is *exact* learning with membership queries — the
// access model of Section IV, where "approximation-resilience" claims stop
// mattering.
#pragma once

#include <functional>

#include "lock/combinational.hpp"
#include "sat/portfolio.hpp"
#include "sat/solver.hpp"

namespace pitfalls::attack {

using lock::LockedCircuit;
using support::BitVec;

/// The unlocked chip: data word in, output word out. Wrapped so attacks can
/// count oracle queries.
class CircuitOracle {
 public:
  using Fn = std::function<BitVec(const BitVec&)>;

  explicit CircuitOracle(Fn fn) : fn_(std::move(fn)) {}

  /// Oracle backed by a copy of the original (unlocked) netlist. The copy
  /// is owned by the oracle, so the argument may go out of scope before
  /// the oracle is queried.
  static CircuitOracle from_netlist(const circuit::Netlist& original);

  BitVec query(const BitVec& data) {
    ++queries_;
    return fn_(data);
  }
  std::size_t queries() const { return queries_; }

 private:
  Fn fn_;
  std::size_t queries_ = 0;
};

struct SatAttackResult {
  BitVec key;                     // recovered key
  std::size_t dip_iterations = 0;
  std::size_t oracle_queries = 0; // DIP queries asked of `oracle`
  bool success = false;           // DIP loop reached UNSAT and key extracted
  sat::SolverStats solver_stats;  // summed across portfolio workers
};

struct SatAttackConfig {
  /// Abort after this many DIP iterations (0 = unlimited).
  std::size_t max_iterations = 0;
  /// Diversified CDCL workers racing every solver query. 1 (the default)
  /// runs a single solver inline with no parallel region; any value yields
  /// byte-identical results for any PITFALLS_THREADS (see sat/portfolio.hpp).
  std::size_t portfolio_workers = 1;
};

/// Run the full SAT attack. The recovered key is exactly functionally
/// correct whenever success == true.
SatAttackResult sat_attack(const LockedCircuit& locked, CircuitOracle& oracle,
                           const SatAttackConfig& config = {});

/// Reusable SAT equivalence oracle: encodes "original vs locked under a
/// free key" once; each equivalent() call answers one candidate key purely
/// under assumptions, so checking many keys shares one clause set and all
/// learned clauses.
class EquivalenceChecker {
 public:
  EquivalenceChecker(const circuit::Netlist& original,
                     const LockedCircuit& locked);

  /// Does the locked circuit under `key` compute the same function as the
  /// original on every input?
  bool equivalent(const BitVec& key);

  const sat::PortfolioSolver& engine() const { return engine_; }

 private:
  sat::PortfolioSolver engine_;
  std::vector<sat::Var> key_vars_;
  sat::Var miter_ = 0;
};

/// SAT-based exact equivalence check: does the locked circuit under `key`
/// compute the same function as `original` on every input? One-shot form
/// of EquivalenceChecker.
bool keys_equivalent(const circuit::Netlist& original,
                     const LockedCircuit& locked, const BitVec& key);

}  // namespace pitfalls::attack
