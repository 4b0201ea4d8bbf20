// Dedicated suite for the rebuilt CDCL engine and the deterministic solver
// portfolio: differential checks against brute force (verdicts AND model
// validity, with and without assumptions), clause-database reduction safety,
// arena compaction, restart policy, portfolio byte-stability across pool
// thread counts, the reusable equivalence checker, and the oracle-lifetime
// regression.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "obs/metrics.hpp"
#include "sat/encoder.hpp"
#include "sat/portfolio.hpp"
#include "sat/solver.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls;
using sat::ClauseSink;
using sat::Lit;
using sat::PortfolioConfig;
using sat::PortfolioSolver;
using sat::Solver;
using sat::SolverConfig;
using sat::SolveResult;
using sat::Var;
using support::BitVec;
using support::Rng;

// ------------------------------------------------------------- utilities

struct Cnf {
  std::size_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

Cnf random_cnf(std::size_t num_vars, std::size_t num_clauses, Rng& rng) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    const std::size_t width = 1 + rng.uniform_below(3);
    std::vector<Lit> clause;
    for (std::size_t l = 0; l < width; ++l)
      clause.push_back(Lit(static_cast<Var>(rng.uniform_below(num_vars)),
                           rng.coin()));
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

std::vector<Var> load_cnf(ClauseSink& sink, const Cnf& cnf) {
  std::vector<Var> vars(cnf.num_vars);
  for (auto& v : vars) v = sink.new_var();
  for (const auto& clause : cnf.clauses) {
    std::vector<Lit> mapped;
    for (const Lit l : clause) mapped.push_back(Lit(vars[l.var()], l.negated()));
    sink.add_clause(std::move(mapped));
  }
  return vars;
}

/// Hard random instances: width-3 clauses over distinct variables at the
/// satisfiability phase transition (m/n around 4.3).
Cnf random_3cnf(std::size_t num_vars, std::size_t num_clauses, Rng& rng) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const Var v = static_cast<Var>(rng.uniform_below(num_vars));
      bool duplicate = false;
      for (const Lit l : clause) duplicate |= l.var() == v;
      if (!duplicate) clause.push_back(Lit(v, rng.coin()));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool clause_satisfied(const std::vector<Lit>& clause, std::uint64_t assignment) {
  for (const Lit l : clause) {
    const bool value = (assignment >> l.var()) & 1;
    if (value != l.negated()) return true;
  }
  return false;
}

/// Exhaustive satisfiability of `cnf` with some variables forced.
bool brute_force_sat(const Cnf& cnf, const std::vector<Lit>& forced) {
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << cnf.num_vars); ++a) {
    bool ok = true;
    for (const Lit f : forced)
      if ((((a >> f.var()) & 1) != 0) == f.negated()) {
        ok = false;
        break;
      }
    for (std::size_t c = 0; ok && c < cnf.clauses.size(); ++c)
      ok = clause_satisfied(cnf.clauses[c], a);
    if (ok) return true;
  }
  return false;
}

void expect_model_satisfies(const Cnf& cnf, const std::vector<Var>& vars,
                            const PortfolioSolver& p) {
  for (const auto& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit l : clause)
      if (p.model_value(vars[l.var()]) != l.negated()) satisfied = true;
    EXPECT_TRUE(satisfied) << "model violates a clause";
  }
}

/// n+1 pigeons into n holes: UNSAT, and hard enough to force real search.
void encode_pigeonhole(ClauseSink& sink, std::size_t holes) {
  const std::size_t pigeons = holes + 1;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = sink.new_var();
  for (std::size_t i = 0; i < pigeons; ++i) {
    std::vector<Lit> somewhere;
    for (std::size_t j = 0; j < holes; ++j) somewhere.push_back(sat::pos(p[i][j]));
    sink.add_clause(std::move(somewhere));
  }
  for (std::size_t j = 0; j < holes; ++j)
    for (std::size_t i1 = 0; i1 < pigeons; ++i1)
      for (std::size_t i2 = i1 + 1; i2 < pigeons; ++i2)
        sink.add_binary(sat::neg(p[i1][j]), sat::neg(p[i2][j]));
}

// ------------------------------------------------- differential solving

TEST(SolverDifferential, RandomCnfVerdictsAndModelsMatchBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_vars = 3 + rng.uniform_below(8);
    const std::size_t num_clauses = 2 + rng.uniform_below(4 * num_vars);
    const Cnf cnf = random_cnf(num_vars, num_clauses, rng);

    Solver s;
    const auto vars = load_cnf(s, cnf);
    const bool expected = brute_force_sat(cnf, {});
    ASSERT_EQ(s.solve() == SolveResult::kSat, expected) << "trial " << trial;
    if (!expected) continue;
    for (const auto& clause : cnf.clauses) {
      bool satisfied = false;
      for (const Lit l : clause)
        if (s.model_value(vars[l.var()]) != l.negated()) satisfied = true;
      EXPECT_TRUE(satisfied) << "trial " << trial;
    }
  }
}

TEST(SolverDifferential, AssumptionVerdictsMatchBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t num_vars = 4 + rng.uniform_below(6);
    const Cnf cnf = random_cnf(num_vars, 3 * num_vars, rng);
    Solver s;
    const auto vars = load_cnf(s, cnf);
    if (s.solve() == SolveResult::kUnsat) continue;  // root UNSAT: no reuse

    // Several assumption sets against ONE incrementally reused solver.
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<Lit> forced;
      const std::size_t count = 1 + rng.uniform_below(3);
      for (std::size_t k = 0; k < count; ++k)
        forced.push_back(Lit(static_cast<Var>(rng.uniform_below(num_vars)),
                             rng.coin()));
      std::vector<Lit> assumptions;
      for (const Lit f : forced)
        assumptions.push_back(Lit(vars[f.var()], f.negated()));
      const bool expected = brute_force_sat(cnf, forced);
      ASSERT_EQ(s.solve(assumptions) == SolveResult::kSat, expected)
          << "trial " << trial << " probe " << probe;
      // UNSAT under assumptions must never poison the solver.
      ASSERT_EQ(s.solve(), SolveResult::kSat) << "trial " << trial;
    }
  }
}

TEST(Solver, FalsifiedAssumptionAtRootIsUnsatButRecoverable) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_unit(sat::pos(a));
  s.add_binary(sat::neg(a), sat::pos(b));
  EXPECT_EQ(s.solve({sat::neg(a)}), SolveResult::kUnsat);
  EXPECT_EQ(s.solve({sat::neg(b)}), SolveResult::kUnsat);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(Solver, DuplicateAndRedundantAssumptionsAreHarmless) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(sat::pos(a), sat::pos(b));
  const std::vector<Lit> assumptions{sat::pos(a), sat::pos(a), sat::pos(a),
                                     sat::neg(b)};
  ASSERT_EQ(s.solve(assumptions), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));
}

TEST(Solver, ConflictBudgetReturnsUnknownAndSearchResumes) {
  SolverConfig config;
  Solver s(config);
  encode_pigeonhole(s, 6);
  EXPECT_EQ(s.solve_limited(1, {}), SolveResult::kUnknown);
  // Resuming with an unlimited budget completes the proof.
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

// ------------------------------------------- clause-DB reduction and GC

TEST(SolverReduceDb, AggressiveReductionKeepsVerdictsCorrect) {
  // A tiny reduce limit forces constant clause-database churn; the solver
  // carries an always-on ENSURE that no reason clause is ever deleted, so
  // simply completing these searches exercises the safety property.
  SolverConfig aggressive;
  aggressive.reduce_base = 4;
  aggressive.reduce_increment = 2;

  Rng rng(99);
  std::uint64_t reductions = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_vars = 12 + rng.uniform_below(4);
    const Cnf cnf = random_3cnf(num_vars, (43 * num_vars) / 10, rng);
    Solver s(aggressive);
    load_cnf(s, cnf);
    const bool expected = brute_force_sat(cnf, {});
    ASSERT_EQ(s.solve() == SolveResult::kSat, expected) << "trial " << trial;
    reductions += s.stats().db_reductions;
  }
  EXPECT_GT(reductions, 0u);
}

TEST(SolverReduceDb, PigeonholeUnderChurnStaysUnsat) {
  SolverConfig aggressive;
  aggressive.reduce_base = 4;
  aggressive.reduce_increment = 1;
  aggressive.luby_base = 2;  // restart often: exercises arena GC paths too
  Solver s(aggressive);
  encode_pigeonhole(s, 7);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_GT(s.stats().deleted_clauses, 0u);
  EXPECT_GT(s.stats().restarts, 0u);
}

TEST(SolverStats, LearningAndMinimisationAreObservable) {
  Solver s;
  encode_pigeonhole(s, 6);
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  const auto& st = s.stats();
  EXPECT_GT(st.conflicts, 0u);
  EXPECT_GT(st.decisions, 0u);
  EXPECT_GT(st.propagations, 0u);
  EXPECT_GT(st.learned_clauses, 0u);
  EXPECT_GE(st.learned_literals, st.learned_clauses);
  EXPECT_GT(st.max_decision_level, 0u);
}

// ------------------------------------------------------------ portfolio

TEST(Portfolio, DiversifiedConfigsAreAPureFunctionOfWorkerIndex) {
  const SolverConfig base;
  const SolverConfig reference = sat::diversified_config(0);
  EXPECT_EQ(reference.var_decay, base.var_decay);
  EXPECT_EQ(reference.luby_base, base.luby_base);
  for (std::size_t w = 0; w < 8; ++w) {
    const SolverConfig once = sat::diversified_config(w);
    const SolverConfig twice = sat::diversified_config(w);
    EXPECT_EQ(once.var_decay, twice.var_decay);
    EXPECT_EQ(once.luby_base, twice.luby_base);
    EXPECT_EQ(once.initial_phase, twice.initial_phase);
    EXPECT_EQ(once.seed, twice.seed);
    if (w > 0) {
      EXPECT_NE(once.seed, reference.seed);
    }
  }
}

TEST(Portfolio, VerdictsMatchBruteForceAndModelsAreValid) {
  Rng rng(512);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t num_vars = 4 + rng.uniform_below(7);
    const Cnf cnf = random_cnf(num_vars, 3 * num_vars, rng);
    PortfolioConfig pc;
    pc.workers = 4;
    pc.round_base_conflicts = 4;  // force multiple race rounds
    PortfolioSolver p(pc);
    const auto vars = load_cnf(p, cnf);
    const bool expected = brute_force_sat(cnf, {});
    ASSERT_EQ(p.solve() == SolveResult::kSat, expected) << "trial " << trial;
    if (expected) expect_model_satisfies(cnf, vars, p);
  }
}

TEST(Portfolio, ByteIdenticalAcrossPoolThreadCounts) {
  struct Snapshot {
    SolveResult sat_verdict;
    SolveResult unsat_verdict;
    std::size_t winner;
    std::vector<bool> model;
    std::uint64_t summed_conflicts;
    std::string counters;
  };

  Rng cnf_rng(31337);
  const Cnf sat_instance = random_cnf(24, 70, cnf_rng);

  std::vector<Snapshot> snapshots;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    support::set_pool_thread_count(threads);
    obs::MetricsRegistry::global().reset_values();

    Snapshot snap;
    {
      PortfolioConfig pc;
      pc.workers = 4;
      pc.round_base_conflicts = 8;
      PortfolioSolver p(pc);
      const auto vars = load_cnf(p, sat_instance);
      snap.sat_verdict = p.solve();
      snap.winner = p.last_winner();
      if (snap.sat_verdict == SolveResult::kSat)
        for (const Var v : vars) snap.model.push_back(p.model_value(v));
      snap.summed_conflicts = p.stats().conflicts;
    }
    {
      PortfolioConfig pc;
      pc.workers = 4;
      pc.round_base_conflicts = 8;
      PortfolioSolver p(pc);
      encode_pigeonhole(p, 6);
      snap.unsat_verdict = p.solve();
      snap.summed_conflicts += p.stats().conflicts;
    }
    snap.counters = obs::MetricsRegistry::global().counters_json();
    snapshots.push_back(std::move(snap));
  }
  support::set_pool_thread_count(1);

  ASSERT_EQ(snapshots.size(), 4u);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].sat_verdict, snapshots[0].sat_verdict);
    EXPECT_EQ(snapshots[i].unsat_verdict, snapshots[0].unsat_verdict);
    EXPECT_EQ(snapshots[i].winner, snapshots[0].winner);
    EXPECT_EQ(snapshots[i].model, snapshots[0].model);
    EXPECT_EQ(snapshots[i].summed_conflicts, snapshots[0].summed_conflicts);
    EXPECT_EQ(snapshots[i].counters, snapshots[0].counters);
  }
  EXPECT_EQ(snapshots[0].unsat_verdict, SolveResult::kUnsat);
}

TEST(Portfolio, SingleWorkerMatchesPlainSolver) {
  Rng rng(7);
  const Cnf cnf = random_cnf(10, 30, rng);
  Solver plain;
  const auto plain_vars = load_cnf(plain, cnf);
  PortfolioSolver single;  // default config: one worker
  const auto port_vars = load_cnf(single, cnf);
  const SolveResult a = plain.solve();
  const SolveResult b = single.solve();
  ASSERT_EQ(a, b);
  if (a == SolveResult::kSat) {
    for (std::size_t i = 0; i < plain_vars.size(); ++i)
      EXPECT_EQ(plain.model_value(plain_vars[i]),
                single.model_value(port_vars[i]));
  }
}

// ----------------------------------------- attack-plane integration

TEST(OracleLifetime, OracleOwnsItsNetlistCopy) {
  // Regression: from_netlist used to capture the argument by reference, so
  // querying the oracle after the netlist died was a use-after-free.
  std::unique_ptr<attack::CircuitOracle> oracle;
  {
    const circuit::Netlist original = circuit::ripple_carry_adder(2);
    oracle = std::make_unique<attack::CircuitOracle>(
        attack::CircuitOracle::from_netlist(original));
  }
  // 1 + 1 = 2 on the 2-bit adder (inputs a | b << 2, 3 sum outputs).
  const BitVec out = oracle->query(BitVec(4, 0b0101));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out.get(0));
  EXPECT_TRUE(out.get(1));
  EXPECT_FALSE(out.get(2));
  EXPECT_EQ(oracle->queries(), 1u);
}

TEST(EquivalenceChecker, AnswersManyKeysFromOneEncoding) {
  const circuit::Netlist original = circuit::ripple_carry_adder(3);
  Rng rng(42);
  const lock::LockedCircuit locked = lock::lock_random_xor(original, 8, rng);
  attack::EquivalenceChecker checker(original, locked);

  EXPECT_TRUE(checker.equivalent(locked.correct_key));
  for (std::size_t bit = 0; bit < 8; ++bit) {
    BitVec wrong = locked.correct_key;
    wrong.set(bit, !wrong.get(bit));
    EXPECT_FALSE(checker.equivalent(wrong)) << "flipped bit " << bit;
  }
  // The one-shot wrapper agrees.
  EXPECT_TRUE(attack::keys_equivalent(original, locked, locked.correct_key));
}

TEST(SatAttackPortfolio, PortfolioAndInlineAttacksRecoverEquivalentKeys) {
  const circuit::Netlist original = circuit::ripple_carry_adder(4);
  Rng rng(2718);
  const lock::LockedCircuit locked = lock::lock_random_xor(original, 10, rng);

  attack::CircuitOracle oracle_a = attack::CircuitOracle::from_netlist(original);
  const auto inline_result = attack::sat_attack(locked, oracle_a);
  ASSERT_TRUE(inline_result.success);
  EXPECT_TRUE(attack::keys_equivalent(original, locked, inline_result.key));

  attack::SatAttackConfig config;
  config.portfolio_workers = 4;
  attack::CircuitOracle oracle_b = attack::CircuitOracle::from_netlist(original);
  const auto portfolio_result = attack::sat_attack(locked, oracle_b, config);
  ASSERT_TRUE(portfolio_result.success);
  EXPECT_TRUE(attack::keys_equivalent(original, locked, portfolio_result.key));
}

}  // namespace
