#include "sat/portfolio.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"

namespace pitfalls::sat {

namespace {

struct PortfolioMetrics {
  obs::Counter& solves;
  obs::Counter& rounds;
  obs::Gauge& winner;

  static PortfolioMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static PortfolioMetrics metrics{
        registry.counter("sat.solver.portfolio_solves"),
        registry.counter("sat.solver.portfolio_rounds"),
        registry.gauge("sat.solver.portfolio_winner")};
    return metrics;
  }
};

}  // namespace

SolverConfig diversified_config(std::size_t w) {
  constexpr std::uint64_t kPortfolioSeed = 0x7e1f0110ULL;
  SolverConfig c;
  // Every worker gets its own random-decision stream seed regardless of
  // diversification, so enabling random decisions later stays decorrelated.
  c.seed = support::splitmix64_mix(
      kPortfolioSeed +
      0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(w) + 1));
  if (w == 0) return c;  // reference configuration

  // Pure functions of the worker index: polarity flips on odd workers,
  // decay and restart cadence cycle through small palettes, and the upper
  // half of the portfolio adds a pinch of random decisions.
  c.initial_phase = (w % 2) == 1;
  constexpr double kDecays[] = {0.95, 0.91, 0.97, 0.93};
  c.var_decay = kDecays[w % 4];
  constexpr std::uint64_t kLubyBases[] = {64, 128, 32, 256};
  c.luby_base = kLubyBases[(w / 2) % 4];
  if (w >= 3) c.random_decision_freq = 0.02;
  if (w % 3 == 2) c.restart_block_margin = 0.0;  // pure Luby, no blocking
  return c;
}

PortfolioSolver::PortfolioSolver(PortfolioConfig config)
    : config_(config) {
  PITFALLS_REQUIRE(config_.workers >= 1, "portfolio needs >= 1 worker");
  PITFALLS_REQUIRE(config_.round_base_conflicts >= 1,
                   "round budget must be positive");
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.emplace_back(diversified_config(w));
}

Var PortfolioSolver::new_var() {
  const Var v = workers_[0].new_var();
  for (std::size_t w = 1; w < workers_.size(); ++w) {
    const Var mirrored = workers_[w].new_var();
    PITFALLS_ENSURE(mirrored == v, "portfolio variable spaces diverged");
  }
  return v;
}

std::size_t PortfolioSolver::num_vars() const {
  return workers_[0].num_vars();
}

bool PortfolioSolver::add_clause(std::vector<Lit> literals) {
  bool ok = true;
  for (std::size_t w = 0; w + 1 < workers_.size(); ++w)
    ok = workers_[w].add_clause(literals) && ok;  // broadcast keeps a copy
  ok = workers_.back().add_clause(std::move(literals)) && ok;
  return ok;
}

SolveResult PortfolioSolver::solve(const std::vector<Lit>& assumptions) {
  PortfolioMetrics& metrics = PortfolioMetrics::get();
  metrics.solves.add(1);

  if (workers_.size() == 1) {
    last_winner_ = 0;
    metrics.winner.set(0.0);
    return workers_[0].solve(assumptions);
  }

  std::vector<SolveResult> results(workers_.size(), SolveResult::kUnknown);
  for (std::uint64_t round = 0;; ++round) {
    metrics.rounds.add(1);
    const std::uint64_t budget = config_.round_base_conflicts
                                 << std::min<std::uint64_t>(round, 14);
    // Every worker runs its full budget each round — a worker that decides
    // early in wall-clock still charges the same deterministic conflict
    // budget, which is what makes the winner thread-count invariant.
    support::parallel_for_tasks(
        workers_.size(),
        [this, &results, &assumptions, budget](std::size_t w) {
          results[w] = workers_[w].solve_limited(budget, assumptions);
        },
        "sat.portfolio");
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (results[w] == SolveResult::kUnknown) continue;
      last_winner_ = w;  // earliest round, lowest index
      metrics.winner.set(static_cast<double>(w));
      return results[w];
    }
  }
}

bool PortfolioSolver::model_value(Var v) const {
  return workers_[last_winner_].model_value(v);
}

SolverStats PortfolioSolver::stats() const {
  SolverStats total;
  for (const Solver& worker : workers_) {
    const SolverStats& s = worker.stats();
    total.decisions += s.decisions;
    total.propagations += s.propagations;
    total.conflicts += s.conflicts;
    total.learned_clauses += s.learned_clauses;
    total.learned_literals += s.learned_literals;
    total.minimized_literals += s.minimized_literals;
    total.restarts += s.restarts;
    total.blocked_restarts += s.blocked_restarts;
    total.db_reductions += s.db_reductions;
    total.deleted_clauses += s.deleted_clauses;
    total.arena_collections += s.arena_collections;
    total.max_decision_level =
        std::max(total.max_decision_level, s.max_decision_level);
  }
  return total;
}

}  // namespace pitfalls::sat
