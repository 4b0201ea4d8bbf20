// Extension bench: SARLock — SAT-attack resilience vs approximate attacks.
//
// Sweeps the SARLock key width and contrasts the exact SAT attack's DIP
// count (≈ one DIP per wrong key: exponential) with plain XOR locking
// (logarithmic-ish) and with AppSAT (constant-ish rounds, approximate key).
// This is the quantitative backdrop of the paper's Section IV-A argument:
// "exact-inference resilience" is a real phenomenon, and it is exactly the
// thing approximate attackers do not care about.
#include <iostream>

#include "attack/appsat.hpp"
#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/antisat.hpp"
#include "lock/sarlock.hpp"
#include "obs/bench_reporter.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pitfalls;
  using support::Rng;
  using support::Table;

  obs::BenchReporter reporter("sarlock", argc, argv);

  std::cout << "== SARLock vs XOR locking under exact and approximate "
               "attacks ==\n\n";

  const circuit::Netlist original = circuit::ripple_carry_adder(4);  // 8 in

  Table table({"scheme", "key bits", "attack", "DIPs", "oracle queries",
               "key accuracy [%]"});

  const std::vector<std::size_t> bit_sweep =
      reporter.smoke() ? std::vector<std::size_t>{4}
                       : std::vector<std::size_t>{4, 6, 8};
  for (const std::size_t bits : bit_sweep) {
    for (const int scheme_id : {0, 1, 2}) {
      Rng lock_rng(100 + bits);
      const lock::LockedCircuit locked =
          scheme_id == 0 ? lock::lock_random_xor(original, bits, lock_rng)
          : scheme_id == 1
              ? lock::lock_sarlock(original, bits, lock_rng)
              : lock::lock_antisat(original, bits, lock_rng);
      const std::string scheme = scheme_id == 0   ? "XOR lock"
                                 : scheme_id == 1 ? "SARLock"
                                                  : "Anti-SAT";

      {
        attack::CircuitOracle oracle =
            attack::CircuitOracle::from_netlist(original);
        const auto result = attack::sat_attack(locked, oracle);
        Rng eval(1);
        const double acc = lock::key_accuracy(original, locked, result.key,
                                              8192, eval);
        table.add_row({scheme, std::to_string(bits), "SAT (exact)",
                       std::to_string(result.dip_iterations),
                       std::to_string(result.oracle_queries),
                       Table::fmt(100.0 * acc, 2)});
      }
      {
        attack::CircuitOracle oracle =
            attack::CircuitOracle::from_netlist(original);
        Rng attack_rng(2);
        attack::AppSatConfig config;
        config.dips_per_round = 4;
        config.random_queries = 48;
        config.error_threshold = 0.02;
        config.max_rounds = 8;
        const auto result = attack::appsat(locked, oracle, attack_rng, config);
        Rng eval(3);
        const double acc = lock::key_accuracy(original, locked, result.key,
                                              8192, eval);
        table.add_row({scheme, std::to_string(bits), "AppSAT (approx)",
                       std::to_string(result.dip_iterations),
                       std::to_string(result.oracle_queries),
                       Table::fmt(100.0 * acc, 2)});
      }
    }
  }
  reporter.print(std::cout, table);
  reporter.note("schemes", 3.0);
  reporter.note("key_widths", static_cast<double>(bit_sweep.size()));

  std::cout
      << "\nShape to observe: SAT-attack DIPs grow ~2^bits on SARLock but\n"
      << "stay near-constant on XOR locking; AppSAT needs a handful of\n"
      << "rounds on both and returns keys >98% accurate — wrong on (at\n"
      << "most) the protected pattern. Security against exact inference,\n"
      << "insecurity against approximation: Rivest's distinction, measured.\n";
  return reporter.finish();
}
