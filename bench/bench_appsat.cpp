// Demo II-A / IV-A: AppSAT vs the full SAT attack — Rivest's exact-vs-
// approximate distinction made measurable.
//
// On ordinary circuits both attacks recover (near-)perfect keys; on
// point-function-style circuits (equality comparators) the exact SAT
// attack pays many DIPs while AppSAT settles early with an approximate key
// whose error is tiny on the uniform distribution — the [5] tradeoff the
// paper builds its Section IV-A argument on.
#include <iostream>

#include "attack/appsat.hpp"
#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "obs/bench_reporter.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using attack::AppSatConfig;
using attack::CircuitOracle;
using circuit::Netlist;
using lock::LockedCircuit;
using support::Rng;
using support::Table;

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("appsat", argc, argv);

  std::cout << "== AppSAT (approximate) vs SAT attack (exact) ==\n\n";

  struct Workload {
    std::string name;
    Netlist netlist;
  };
  Rng gen_rng(11);
  std::vector<Workload> workloads;
  if (!reporter.smoke()) {
    circuit::RandomCircuitConfig config;
    config.inputs = 12;
    config.gates = 100;
    config.outputs = 3;
    workloads.push_back({"rand12x100", circuit::random_circuit(config, gen_rng)});
    workloads.push_back({"comparator10", circuit::equality_comparator(10)});
  }
  workloads.push_back({"adder6", circuit::ripple_carry_adder(6)});

  Table table({"circuit", "key bits", "attack", "DIPs", "oracle queries",
               "key accuracy [%]", "terminated"});

  for (const auto& workload : workloads) {
    const std::size_t key_bits = 12;
    Rng lock_rng(2000);
    const LockedCircuit locked =
        lock::lock_random_xor(workload.netlist, key_bits, lock_rng);

    {
      CircuitOracle oracle = CircuitOracle::from_netlist(workload.netlist);
      const auto result = attack::sat_attack(locked, oracle);
      Rng eval(1);
      const double acc = lock::key_accuracy(workload.netlist, locked,
                                            result.key, 8192, eval);
      table.add_row({workload.name, std::to_string(key_bits), "SAT (exact)",
                     std::to_string(result.dip_iterations),
                     std::to_string(result.oracle_queries),
                     Table::fmt(100.0 * acc, 2),
                     result.success ? "UNSAT (proof)" : "aborted"});
    }
    {
      CircuitOracle oracle = CircuitOracle::from_netlist(workload.netlist);
      Rng attack_rng(3);
      AppSatConfig config;
      config.dips_per_round = 3;
      config.random_queries = 48;
      config.error_threshold = 0.02;
      const auto result = attack::appsat(locked, oracle, attack_rng, config);
      Rng eval(2);
      const double acc = lock::key_accuracy(workload.netlist, locked,
                                            result.key, 8192, eval);
      table.add_row(
          {workload.name, std::to_string(key_bits), "AppSAT (approx)",
           std::to_string(result.dip_iterations),
           std::to_string(result.oracle_queries), Table::fmt(100.0 * acc, 2),
           result.exact ? "UNSAT (proof)"
                        : (result.settled ? "settled (err est. " +
                                                Table::fmt(result.estimated_error, 3) +
                                                ")"
                                          : "budget")});
    }
  }
  reporter.print(std::cout, table);
  reporter.note("workloads", static_cast<double>(workloads.size()));

  std::cout
      << "\nReading guide: 'exact-inference resilience' (the comparator's\n"
      << "hidden point survives AppSAT with noticeable probability) does\n"
      << "NOT imply approximation resilience — AppSAT's key is >98%\n"
      << "accurate everywhere else. And with membership queries the full\n"
      << "SAT attack converts approximate learning into exact recovery,\n"
      << "which is the paper's Section IV-A argument against [4]'s\n"
      << "impossibility framing.\n";
  return reporter.finish();
}
