// Deterministic solver portfolio: K diversified CDCL configurations over
// one broadcast clause stream, raced in fixed conflict-budget rounds on the
// support/parallel pool.
//
// Determinism contract (the same one DESIGN.md §8 proves for the PUF
// plane): the number of workers K and every worker's SolverConfig are pure
// functions of (PortfolioConfig, worker index) — never of the thread count
// or of which pool thread runs a worker. A solve proceeds in rounds; in
// round r EVERY undecided worker runs solve_limited with the same budget
// B(r), and the winner is the lowest-indexed worker that decides in the
// earliest round. Workers that would have "finished first" on a faster
// thread still run their full budget, so the chosen winner, its model, and
// every per-worker counter are byte-identical for any PITFALLS_THREADS —
// the pool only decides who executes a worker's round, not what it
// computes.
#pragma once

#include <cstddef>
#include <vector>

#include "sat/solver.hpp"

namespace pitfalls::sat {

struct PortfolioConfig {
  /// Worker count. Fixed by the caller — NEVER derived from the pool size.
  std::size_t workers = 1;
  /// Conflict budget of round 0; round r gets base << min(r, 14).
  std::uint64_t round_base_conflicts = 2048;
};

/// Derive worker w's configuration: worker 0 runs the default SolverConfig
/// verbatim, the others perturb polarity, decay, restart cadence and
/// random-decision noise as a pure function of w. Every worker's
/// random-decision seed derives from w and one fixed portfolio seed.
SolverConfig diversified_config(std::size_t w);

class PortfolioSolver : public ClauseSink {
 public:
  explicit PortfolioSolver(PortfolioConfig config = {});

  Var new_var() override;
  bool add_clause(std::vector<Lit> literals) override;
  std::size_t num_vars() const override;

  /// Race the workers (see header comment). With one worker this is a
  /// plain Solver::solve and no parallel region is entered.
  SolveResult solve() { return solve(std::vector<Lit>{}); }
  SolveResult solve(const std::vector<Lit>& assumptions);

  /// Model of the winning worker after kSat.
  bool model_value(Var v) const;

  /// Stats summed across workers (total work, thread-count invariant).
  SolverStats stats() const;

  std::size_t num_workers() const { return workers_.size(); }
  /// Winner of the most recent solve() call.
  std::size_t last_winner() const { return last_winner_; }
  std::size_t num_clauses() const { return workers_[0].num_clauses(); }
  const Solver& worker(std::size_t w) const { return workers_[w]; }

 private:
  PortfolioConfig config_;
  std::vector<Solver> workers_;
  std::size_t last_winner_ = 0;
};

}  // namespace pitfalls::sat
