#include "attack/appsat.hpp"

#include "attack/detail.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::attack {

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
  const std::size_t start_queries = oracle.queries();
  // Same miter as sat_attack; each settle phase extracts its candidate key
  // from the observations so far.
  detail::KeyMiter miter(locked, config.portfolio_workers);

  AppSatResult result;
  result.key = BitVec(locked.num_key_inputs());
  const auto finish = [&] {
    result.oracle_queries = oracle.queries() - start_queries;
    return result;
  };

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    const obs::TraceSpan round_span("attack.appsat.round");
    ++result.rounds;

    // DIP phase.
    bool unsat = false;
    {
      const obs::TraceSpan dip_span("attack.appsat.dip_phase");
      for (std::size_t d = 0; d < config.dips_per_round; ++d) {
        const std::optional<BitVec> dip = miter.next_dip();
        if (!dip) {
          unsat = true;
          break;
        }
        ++result.dip_iterations;
        miter.observe(*dip, oracle.query(*dip));
        metrics.dips.add(1);
      }
    }
    if (unsat) {
      result.key = miter.extract_key();
      result.exact = true;
      result.estimated_error = 0.0;
      metrics.key_bits_fixed.add(locked.num_key_inputs());
      return finish();
    }

    // Settle phase: estimate the candidate key's error with random queries;
    // every observed mismatch is recycled as a constraint.
    const obs::TraceSpan settle_span("attack.appsat.settle_phase");
    const BitVec candidate = miter.extract_key();
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < config.random_queries; ++q) {
      BitVec data(num_data);
      rng.fill_coins(data);
      const BitVec truth = oracle.query(data);
      if (locked.evaluate(data, candidate) != truth) {
        ++mismatches;
        miter.observe(data, truth);
      }
    }
    result.estimated_error = static_cast<double>(mismatches) /
                             static_cast<double>(config.random_queries);
    result.key = candidate;
    if (result.estimated_error <= config.error_threshold) {
      result.settled = true;
      metrics.key_bits_fixed.add(locked.num_key_inputs());
      return finish();
    }
  }
  return finish();  // budget exhausted; key is the latest candidate
}

}  // namespace pitfalls::attack
