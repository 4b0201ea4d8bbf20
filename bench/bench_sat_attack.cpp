// Demo II-A: the oracle-guided SAT attack on combinational logic locking.
//
// For each (circuit, key size): run the full DIP loop, report iterations,
// oracle queries and solver conflicts, and verify the recovered key is
// *functionally exact* (SAT-based equivalence check). The point the
// paper takes from [4]/[5]: with membership-query access (DIPs are chosen
// inputs), locking reduces to exact learning and falls in minutes —
// "random examples only" adversary models drastically understate this.
//
// The smoke tier deliberately includes an 80-bit key (adder32): the CDCL
// arena solver plus the diversified portfolio makes keys an order of
// magnitude past the seed's 8-bit smoke ceiling routine, and the committed
// baseline pins that down. The table holds only deterministic cells, which
// bench_smoke requires to equal that baseline; per-attack wall time goes
// to the attack.sat_attack.seconds histogram and the attack.sat_attack
// spans instead.
#include <iostream>

#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "obs/bench_reporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/checkpoint.hpp"
#include "store/observation_journal.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using attack::CircuitOracle;
using circuit::Netlist;
using lock::LockedCircuit;
using support::Rng;
using support::Table;

struct Workload {
  std::string name;
  Netlist netlist;
};

/// One attack cell's checkpointed record: everything its table row and
/// the seconds histogram need.
struct AttackCell {
  attack::SatAttackResult result;
  bool exact = false;
  double seconds = 0.0;
};

void put_attack_cell(support::snapshot::SectionWriter& w,
                     const AttackCell& cell) {
  store::put_bitvec(w, cell.result.key);
  w.u64(cell.result.dip_iterations);
  w.u64(cell.result.oracle_queries);
  w.u64(cell.result.solver_stats.conflicts);
  w.u8(cell.result.success ? 1 : 0);
  w.u8(cell.exact ? 1 : 0);
  w.f64(cell.seconds);
}

AttackCell get_attack_cell(support::snapshot::SectionReader& r) {
  AttackCell cell;
  cell.result.key = store::get_bitvec(r);
  cell.result.dip_iterations = static_cast<std::size_t>(r.u64());
  cell.result.oracle_queries = static_cast<std::size_t>(r.u64());
  cell.result.solver_stats.conflicts = r.u64();
  cell.result.success = r.u8() != 0;
  cell.exact = r.u8() != 0;
  cell.seconds = r.f64();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  pitfalls::obs::BenchReporter reporter("sat_attack", argc, argv);

  // Crash-safe sweep (--checkpoint/--resume): in-flight attacks journal
  // their DIP observations (resume replays them — same key, DIPs and
  // conflicts, no repeated oracle queries); finished cells store their full
  // result row, including the measured seconds, and are not re-run.
  const auto session = store::open_bench_session(reporter, 7, "sat_attack.v2");

  std::cout << "== SAT attack on XOR/XNOR-locked circuits ==\n\n";

  Rng gen_rng(7);
  std::vector<Workload> workloads;
  workloads.push_back({"c17", circuit::c17()});
  workloads.push_back({"adder8 (ripple)", circuit::ripple_carry_adder(8)});
  workloads.push_back({"adder32 (ripple)", circuit::ripple_carry_adder(32)});
  if (!reporter.smoke()) {
    workloads.push_back({"comparator8", circuit::equality_comparator(8)});
    {
      circuit::RandomCircuitConfig config;
      config.inputs = 12;
      config.gates = 120;
      config.outputs = 4;
      workloads.push_back(
          {"rand12x120", circuit::random_circuit(config, gen_rng)});
    }
    {
      circuit::RandomCircuitConfig config;
      config.inputs = 16;
      config.gates = 250;
      config.outputs = 6;
      workloads.push_back(
          {"rand16x250", circuit::random_circuit(config, gen_rng)});
    }
  }
  const std::vector<std::size_t> key_sweep =
      reporter.smoke() ? std::vector<std::size_t>{4, 8, 80}
                       : std::vector<std::size_t>{4, 8, 16, 32, 80, 128};

  attack::SatAttackConfig attack_config;
  attack_config.portfolio_workers = 4;

  auto& attack_seconds =
      obs::MetricsRegistry::global().histogram("attack.sat_attack.seconds");

  std::size_t total_dips = 0;
  Table table({"circuit", "inputs", "gates", "key bits", "DIPs",
               "oracle queries", "solver conflicts", "exact?"});
  std::size_t cell_index = 0;
  for (const auto& workload : workloads) {
    const std::size_t max_key = std::min<std::size_t>(
        pitfalls::lock::lockable_gate_count(workload.netlist), 128);
    for (std::size_t key_bits : key_sweep) {
      if (key_bits > max_key) continue;
      const std::string cell = "cell." + std::to_string(cell_index++);
      Rng lock_rng(1000 + key_bits);
      const LockedCircuit locked =
          lock::lock_random_xor(workload.netlist, key_bits, lock_rng);

      const AttackCell outcome = store::checkpointed_unit<AttackCell>(
          session.get(), cell,
          [&] {
            CircuitOracle live = CircuitOracle::from_netlist(workload.netlist);
            store::AttackObservationJournal journal(live, session.get(),
                                                    cell + ".log");
            obs::Stopwatch watch;
            AttackCell out;
            out.result =
                attack::sat_attack(locked, journal.oracle(), attack_config);
            out.seconds = watch.seconds();
            out.exact = out.result.success &&
                        attack::keys_equivalent(workload.netlist, locked,
                                                out.result.key);
            return out;
          },
          put_attack_cell, get_attack_cell);
      attack_seconds.observe(outcome.seconds);
      total_dips += outcome.result.dip_iterations;
      table.add_row({workload.name,
                     std::to_string(workload.netlist.num_inputs()),
                     std::to_string(workload.netlist.logic_gate_count()),
                     std::to_string(key_bits),
                     std::to_string(outcome.result.dip_iterations),
                     std::to_string(outcome.result.oracle_queries),
                     std::to_string(outcome.result.solver_stats.conflicts),
                     outcome.exact ? "yes" : "NO"});
    }
  }
  reporter.print(std::cout, table);
  reporter.note("workloads", static_cast<double>(workloads.size()));
  reporter.note("total_dips", static_cast<double>(total_dips));
  reporter.note("portfolio_workers",
                static_cast<double>(attack_config.portfolio_workers));

  std::cout
      << "\nObservations to compare with the literature: DIP counts stay\n"
      << "far below 2^inputs (the attack is exact learning with chosen\n"
      << "queries, not coupon collection), and the comparator — a point\n"
      << "function — needs disproportionately many DIPs for its size,\n"
      << "which is precisely the weakness AppSAT [5] exploits (see\n"
      << "bench_appsat). The 80/128-bit adder keys fall in the same few\n"
      << "DIPs as the 8-bit ones: key count alone is no security metric.\n";
  return reporter.finish();
}
