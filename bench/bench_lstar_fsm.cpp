// Demo V-B: Angluin's L* against HARPOON-style obfuscated FSMs.
//
// The paper's representation point: [4] reasons about learnability of
// FSMs via DFA representations and input-pattern counts; but L* delivers a
// DFA regardless of how the design is represented, and with it the unlock
// sequence. We sweep FSM size and unlock length and report query counts —
// polynomial throughout — plus the recovered unlock sequences.
#include <iostream>
#include <vector>

#include "attack/fsm_bmc.hpp"
#include "circuit/fsm.hpp"
#include "lock/fsm_obfuscation.hpp"
#include "ml/lstar.hpp"
#include "obs/bench_reporter.hpp"
#include "store/checkpoint.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using circuit::MealyMachine;
using lock::ObfuscatedFsm;
using circuit::Dfa;
using circuit::Word;
using support::Rng;
using support::Table;

std::string word_to_string(const Word& word) {
  std::string out;
  for (auto symbol : word) out += std::to_string(symbol);
  return out.empty() ? "(empty)" : out;
}

/// Outcome of one (states, unlock_len) sweep cell. Learn time lives in the
/// ml.lstar.learn_seconds metric (timed inside the learner), not the table:
/// metric planes are run-dependent, table text must be resume-identical.
struct SweepCell {
  std::uint64_t dfa_states = 0;
  std::uint64_t mqs = 0;
  std::uint64_t eqs = 0;
  std::uint8_t recovered = 0;
  std::string sequence;
};

void put_sweep_cell(support::snapshot::SectionWriter& w, const SweepCell& c) {
  w.u64(c.dfa_states);
  w.u64(c.mqs);
  w.u64(c.eqs);
  w.u8(c.recovered);
  w.str(c.sequence);
}

SweepCell get_sweep_cell(support::snapshot::SectionReader& r) {
  SweepCell c;
  c.dfa_states = r.u64();
  c.mqs = r.u64();
  c.eqs = r.u64();
  c.recovered = r.u8();
  c.sequence = r.str();
  return c;
}

/// Outcome of one (states, unlock_len) duel cell (L* vs BMC).
struct DuelCell {
  std::uint64_t mqs = 0;
  std::uint64_t conflicts = 0;
  std::uint8_t both = 0;
};

void put_duel_cell(support::snapshot::SectionWriter& w, const DuelCell& c) {
  w.u64(c.mqs);
  w.u64(c.conflicts);
  w.u8(c.both);
}

DuelCell get_duel_cell(support::snapshot::SectionReader& r) {
  DuelCell c;
  c.mqs = r.u64();
  c.conflicts = r.u64();
  c.both = r.u8();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  pitfalls::obs::BenchReporter reporter("lstar_fsm", argc, argv);

  // Crash-safe sweeps (--checkpoint/--resume): one cell per table row;
  // finished cells replay their stored outcome instead of re-learning, and
  // the table text comes out byte-identical either way.
  const auto session = store::open_bench_session(reporter, 17, "lstar_fsm.v1");

  std::cout << "== L* vs HARPOON-style FSM obfuscation ==\n\n";

  const bool smoke = reporter.smoke();
  const std::vector<std::size_t> state_sweep =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{4, 8, 16, 32};
  const std::vector<std::size_t> unlock_sweep =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 6};
  const std::vector<std::size_t> duel_states =
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{8, 32};
  const std::vector<std::size_t> duel_unlocks =
      smoke ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 6};

  Table table({"functional states", "unlock length", "DFA states (target)",
               "MQs", "EQs", "unlock recovered", "sequence"});

  for (const std::size_t states : state_sweep) {
    for (const std::size_t unlock_len : unlock_sweep) {
      const SweepCell cell = store::checkpointed_unit<SweepCell>(
          session.get(),
          "sweep." + std::to_string(states) + "." + std::to_string(unlock_len),
          [&] {
            Rng rng(100 * states + unlock_len);
            const MealyMachine functional =
                MealyMachine::random(states, 2, 2, rng);
            const ObfuscatedFsm obf =
                lock::obfuscate_fsm(functional, unlock_len, rng);
            // Accept only the "authorized" half of the functional states,
            // so the learned DFA must capture the functional core's
            // structure rather than collapsing it into one accepting sink.
            std::set<std::size_t> accepting;
            for (auto s : obf.functional_states)
              if ((s - obf.num_obfuscation_states) % 2 == 0)
                accepting.insert(s);
            const Dfa target = obf.machine.to_acceptance_dfa(accepting);

            ml::ExactDfaTeacher teacher(target);
            ml::LStarStats stats;
            const Dfa learned = ml::LStarLearner().learn(teacher, &stats);

            // Shortest accepted word of the learned DFA = an unlock
            // sequence.
            Dfa empty(1, target.alphabet_size(), 0);
            const auto unlock = Dfa::distinguishing_word(learned, empty);
            const bool recovered =
                unlock.has_value() &&
                obf.functional_states.contains(obf.machine.run(*unlock));

            SweepCell out;
            out.dfa_states = target.minimized().num_states();
            out.mqs = stats.membership_queries;
            out.eqs = stats.equivalence_queries;
            out.recovered = recovered ? 1 : 0;
            out.sequence =
                unlock.has_value() ? word_to_string(*unlock) : "-";
            return out;
          },
          put_sweep_cell, get_sweep_cell);

      table.add_row({std::to_string(states), std::to_string(unlock_len),
                     std::to_string(cell.dfa_states),
                     std::to_string(cell.mqs), std::to_string(cell.eqs),
                     cell.recovered != 0 ? "yes" : "NO", cell.sequence});
    }
  }
  reporter.print(std::cout, table);

  std::cout
      << "\nReading guide: the obfuscated FSM's functional-mode language is\n"
      << "regular; L* needs polynomially many membership queries in the\n"
      << "minimal-DFA size, irrespective of the gate-level representation.\n"
      << "Impossibility arguments quantifying over 'input patterns to the\n"
      << "FSM' miss this improper-representation attacker (Section V-B).\n\n";

  // Second axis: what the attacker HOLDS. The white-box structural
  // attacker (a foundry with the netlist) needs zero device queries — BMC
  // on the unrolled transition relation finds the unlock word directly.
  Table duel({"functional states", "unlock length", "L* MQs",
              "BMC queries", "BMC solver conflicts", "both recover?"});
  for (const std::size_t states : duel_states) {
    for (const std::size_t unlock_len : duel_unlocks) {
      const DuelCell cell = store::checkpointed_unit<DuelCell>(
          session.get(),
          "duel." + std::to_string(states) + "." + std::to_string(unlock_len),
          [&] {
            Rng rng(500 * states + unlock_len);
            const MealyMachine functional =
                MealyMachine::random(states, 2, 2, rng);
            const ObfuscatedFsm obf =
                lock::obfuscate_fsm(functional, unlock_len, rng);

            const Dfa duel_target = obf.functional_mode_dfa();
            ml::ExactDfaTeacher teacher(duel_target);
            ml::LStarStats stats;
            (void)ml::LStarLearner().learn(teacher, &stats);

            const auto bmc = attack::bmc_reach(
                obf.machine, obf.functional_states, unlock_len + 2);
            const bool both =
                bmc.found &&
                obf.functional_states.contains(obf.machine.run(bmc.word)) &&
                bmc.word.size() == obf.unlock_sequence.size();

            DuelCell out;
            out.mqs = stats.membership_queries;
            out.conflicts = bmc.conflicts;
            out.both = both ? 1 : 0;
            return out;
          },
          put_duel_cell, get_duel_cell);
      duel.add_row({std::to_string(states), std::to_string(unlock_len),
                    std::to_string(cell.mqs), "0",
                    std::to_string(cell.conflicts),
                    cell.both != 0 ? "yes" : "NO"});
    }
  }
  reporter.print(std::cout, duel,
                 "-- black-box query attacker (L*) vs white-box structural "
                 "attacker (BMC on the synthesized netlist) --");
  std::cout
      << "\nBoth recover the unlock sequence; they differ in WHAT the\n"
      << "adversary model grants — queries vs structure. A security claim\n"
      << "must state both axes to be meaningful.\n";
  return reporter.finish();
}
