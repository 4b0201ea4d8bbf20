#include "attack/appsat.hpp"

#include "attack/detail.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::attack {

using detail::add_io_constraint;
using detail::fresh_vars;
using detail::mix_inputs;
using sat::CircuitEncoding;
using sat::Lit;
using sat::PortfolioSolver;
using sat::SolveResult;
using sat::Var;

AppSatResult appsat(const lock::LockedCircuit& locked, CircuitOracle& oracle,
                    support::Rng& rng, const AppSatConfig& config) {
  PITFALLS_REQUIRE(config.dips_per_round >= 1, "need at least one DIP/round");
  PITFALLS_REQUIRE(config.random_queries >= 1,
                   "need at least one random query");
  PITFALLS_REQUIRE(config.error_threshold >= 0.0 &&
                       config.error_threshold < 1.0,
                   "error threshold must be in [0,1)");

  const obs::TraceSpan attack_span("attack.appsat");
  detail::AttackMetrics& metrics = detail::AttackMetrics::get();
  const std::size_t num_data = locked.num_data_inputs();
  const std::size_t num_key = locked.num_key_inputs();
  const std::size_t start_queries = oracle.queries();

  // One incremental engine, same layout as sat_attack: DIP search assumes
  // the conditional miter, candidate extraction reuses the clause set
  // (reading the k1 copy) without it.
  PortfolioSolver engine(detail::portfolio_config(
      config.portfolio_workers, config.portfolio_round_conflicts,
      config.solver));
  const std::vector<Var> x_vars = fresh_vars(engine, num_data);
  const std::vector<Var> k1 = fresh_vars(engine, num_key);
  const std::vector<Var> k2 = fresh_vars(engine, num_key);
  const CircuitEncoding enc1 = sat::encode_netlist(
      engine, locked.netlist, mix_inputs(locked, x_vars, k1));
  const CircuitEncoding enc2 = sat::encode_netlist(
      engine, locked.netlist, mix_inputs(locked, x_vars, k2));
  const Var miter =
      sat::add_conditional_miter(engine, enc1.output_vars, enc2.output_vars);
  metrics.miter_clauses.add(engine.num_clauses());
  const std::vector<Lit> want_dip{sat::pos(miter)};

  // Resume support (SatAttackConfig contract): replaying the journalled
  // responses against the re-run deterministic computation reproduces the
  // interrupted attack bit-for-bit; only new observations touch the oracle.
  detail::ObservationJournal journal(config.journal);

  auto record_observation = [&](const BitVec& x, const BitVec& y) {
    add_io_constraint(engine, locked, k1, x, y);
    add_io_constraint(engine, locked, k2, x, y);
  };

  auto extract_key = [&]() {
    const SolveResult kr = engine.solve();
    PITFALLS_ENSURE(kr == SolveResult::kSat,
                    "correct key must satisfy all observations");
    BitVec key(num_key);
    for (std::size_t i = 0; i < num_key; ++i)
      key.set(i, engine.model_value(k1[i]));
    return key;
  };

  AppSatResult result;
  result.key = BitVec(num_key);

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    const obs::TraceSpan round_span("attack.appsat.round");
    ++result.rounds;

    // DIP phase.
    bool unsat = false;
    {
      const obs::TraceSpan dip_span("attack.appsat.dip_phase");
      for (std::size_t d = 0; d < config.dips_per_round; ++d) {
        if (engine.solve(want_dip) == SolveResult::kUnsat) {
          unsat = true;
          break;
        }
        ++result.dip_iterations;
        BitVec dip(num_data);
        for (std::size_t i = 0; i < num_data; ++i)
          dip.set(i, engine.model_value(x_vars[i]));
        record_observation(dip, journal.ask(oracle, dip));
        metrics.dips.add(1);
      }
    }
    if (unsat) {
      result.key = extract_key();
      result.exact = true;
      result.estimated_error = 0.0;
      result.replayed_queries = journal.replayed();
      result.oracle_queries =
          journal.replayed() + oracle.queries() - start_queries;
      metrics.key_bits_fixed.add(num_key);
      return result;
    }

    // Settle phase: estimate the candidate key's error with random queries;
    // every observed mismatch is recycled as a constraint.
    const obs::TraceSpan settle_span("attack.appsat.settle_phase");
    const BitVec candidate = extract_key();
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < config.random_queries; ++q) {
      BitVec data(num_data);
      rng.fill_coins(data);
      const BitVec truth = journal.ask(oracle, data);
      if (locked.evaluate(data, candidate) != truth) {
        ++mismatches;
        record_observation(data, truth);
      }
    }
    result.estimated_error = static_cast<double>(mismatches) /
                             static_cast<double>(config.random_queries);
    result.key = candidate;
    if (result.estimated_error <= config.error_threshold) {
      result.settled = true;
      result.replayed_queries = journal.replayed();
      result.oracle_queries =
          journal.replayed() + oracle.queries() - start_queries;
      metrics.key_bits_fixed.add(num_key);
      return result;
    }
  }

  result.replayed_queries = journal.replayed();
  result.oracle_queries = journal.replayed() + oracle.queries() - start_queries;
  return result;  // budget exhausted; key is the latest candidate
}

}  // namespace pitfalls::attack
