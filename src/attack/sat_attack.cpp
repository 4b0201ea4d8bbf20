#include "attack/sat_attack.hpp"

#include <memory>

#include "attack/detail.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/encoder.hpp"
#include "support/require.hpp"

namespace pitfalls::attack {

using detail::fresh_vars;
using detail::mix_inputs;
using sat::CircuitEncoding;
using sat::Lit;
using sat::SolveResult;
using sat::Var;

namespace detail {

AttackMetrics& AttackMetrics::get() {
  static auto& registry = obs::MetricsRegistry::global();
  static AttackMetrics metrics{registry.counter("attack.dips"),
                               registry.counter("attack.miter_clauses"),
                               registry.counter("attack.key_bits_fixed")};
  return metrics;
}

}  // namespace detail

CircuitOracle CircuitOracle::from_netlist(const circuit::Netlist& original) {
  // Own a copy: the lambda must not dangle when the caller's netlist dies
  // before the oracle does (regression: oracle_lifetime test).
  auto owned = std::make_shared<circuit::Netlist>(original);
  return CircuitOracle(
      [owned](const BitVec& data) { return owned->evaluate(data); });
}

SatAttackResult sat_attack(const LockedCircuit& locked, CircuitOracle& oracle,
                           const SatAttackConfig& config) {
  const obs::TraceSpan attack_span("attack.sat_attack");
  detail::AttackMetrics& metrics = detail::AttackMetrics::get();
  const std::size_t start_queries = oracle.queries();
  detail::KeyMiter miter = [&] {
    const obs::TraceSpan encode_span("attack.sat_attack.encode_miter");
    return detail::KeyMiter(locked, config.portfolio_workers);
  }();

  SatAttackResult result;
  result.key = BitVec(locked.num_key_inputs());
  const auto finish = [&] {
    result.solver_stats = miter.engine().stats();
    result.oracle_queries = oracle.queries() - start_queries;
    return result;
  };

  for (;;) {
    const obs::TraceSpan dip_span("attack.sat_attack.dip");
    const std::optional<BitVec> dip = miter.next_dip();
    if (!dip) break;
    ++result.dip_iterations;
    if (config.max_iterations != 0 &&
        result.dip_iterations > config.max_iterations)
      return finish();  // aborted: success stays false
    miter.observe(*dip, oracle.query(*dip));
    metrics.dips.add(1);
  }

  // No DIP remains: every key satisfying the observations is functionally
  // equivalent to the oracle, so any one of them is the key.
  const obs::TraceSpan extract_span("attack.sat_attack.extract_key");
  result.key = miter.extract_key();
  result.success = true;
  metrics.key_bits_fixed.add(locked.num_key_inputs());
  return finish();
}

EquivalenceChecker::EquivalenceChecker(const circuit::Netlist& original,
                                       const LockedCircuit& locked) {
  PITFALLS_REQUIRE(original.num_inputs() == locked.num_data_inputs(),
                   "original/locked data arity mismatch");
  const std::vector<Var> x_vars = fresh_vars(engine_, original.num_inputs());
  key_vars_ = fresh_vars(engine_, locked.num_key_inputs());
  const CircuitEncoding orig_enc =
      sat::encode_netlist(engine_, original, x_vars);
  const CircuitEncoding lock_enc = sat::encode_netlist(
      engine_, locked.netlist, mix_inputs(locked, x_vars, key_vars_));
  miter_ = sat::add_conditional_miter(engine_, orig_enc.output_vars,
                                      lock_enc.output_vars);
}

bool EquivalenceChecker::equivalent(const BitVec& key) {
  PITFALLS_REQUIRE(key.size() == key_vars_.size(), "key arity mismatch");
  std::vector<Lit> assumptions;
  assumptions.reserve(key.size() + 1);
  for (std::size_t i = 0; i < key.size(); ++i)
    assumptions.push_back(Lit(key_vars_[i], !key.get(i)));
  assumptions.push_back(sat::pos(miter_));
  return engine_.solve(assumptions) == SolveResult::kUnsat;
}

bool keys_equivalent(const circuit::Netlist& original,
                     const LockedCircuit& locked, const BitVec& key) {
  EquivalenceChecker checker(original, locked);
  return checker.equivalent(key);
}

}  // namespace pitfalls::attack
