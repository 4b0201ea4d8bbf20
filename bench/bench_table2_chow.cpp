// Reproduces Table II: "Results of learning an LTF f' built upon Chow
// parameters approximated by using the CRPs collected from BR PUFs."
//
// Pipeline (exactly the paper's): collect noiseless-and-stable CRPs from a
// BR PUF; estimate the Chow parameters; construct the LTF f' (De et al.
// [25] reconstruction); train a Perceptron on challenges re-labelled by f';
// test against held-out stable CRPs of the real PUF.
//
// Paper numbers (FPGA BR PUFs):      n=16    n=32    n=64
//   1000 CRPs                        71.93   91.52   92.55
//   2500 CRPs                        81.02   92.04   93.80
//   5000 CRPs                        84.94   91.45   93.57
//   10000 CRPs                       88.65   91.85   93.69
// Shape to reproduce: accuracy rises with the CRP budget but PLATEAUS well
// below 100% — because BR PUFs are not LTFs. Absolute cells depend on the
// FPGA instances; our simulated instances are calibrated per DESIGN.md §3.
#include <iostream>
#include <vector>

#include "ml/chow.hpp"
#include "obs/bench_reporter.hpp"
#include "ml/features.hpp"
#include "ml/perceptron.hpp"
#include "puf/bistable_ring.hpp"
#include "puf/crp.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using puf::BistableRingConfig;
using puf::BistableRingPuf;
using puf::CrpSet;
using support::Rng;
using support::Table;

// Paper's held-out stable test-set sizes for n = 16 / 32 / 64.
std::size_t paper_test_size(std::size_t n) {
  if (n <= 16) return 44834;
  if (n <= 32) return 35876;
  return 31375;
}

double run_cell(std::size_t n, std::size_t budget, std::size_t repeats,
                std::size_t test_size) {
  double total = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    Rng instance_rng(1000 * n + rep);
    const BistableRingPuf br(BistableRingConfig::paper_instance(n),
                             instance_rng);

    Rng collect(2000 * n + rep);
    const CrpSet train_crps = CrpSet::collect_stable(br, budget, 11, collect);
    const CrpSet test_crps = CrpSet::collect_stable(br, test_size, 11, collect);

    // Chow parameters from the collected CRPs -> f'.
    const auto chow =
        ml::estimate_chow(train_crps.challenges(), train_crps.responses());
    const boolfn::Ltf f_prime = ml::reconstruct_ltf(chow);

    // Perceptron trained on CRPs re-labelled by f' (the paper's protocol).
    const CrpSet relabelled = train_crps.relabel(f_prime);
    Rng train_rng(3000 * n + rep);
    const ml::LinearModel model =
        ml::Perceptron({.max_epochs = 48}).fit_model(
            relabelled.challenges(), relabelled.responses(),
            ml::pm_with_bias, train_rng);

    total += test_crps.accuracy_of(model);
  }
  return 100.0 * total / static_cast<double>(repeats);
}

}  // namespace

int main(int argc, char** argv) {
  pitfalls::obs::BenchReporter reporter("table2_chow", argc, argv);

  std::cout << "== Table II: Perceptron on the Chow-parameter LTF f' vs. "
               "real BR PUF responses ==\n"
            << "(accuracy %, averaged over 3 simulated BR instances per "
               "cell; test sets are the\n"
            << " paper's stable-CRP sizes: 44834 / 35876 / 31375)\n\n";

  const bool smoke = reporter.smoke();
  const std::size_t repeats = smoke ? 1 : 3;
  const std::vector<std::size_t> budgets =
      smoke ? std::vector<std::size_t>{500}
            : std::vector<std::size_t>{1000, 2500, 5000, 10000};
  const std::vector<std::size_t> ns = smoke ? std::vector<std::size_t>{16}
                                            : std::vector<std::size_t>{16, 32, 64};
  reporter.note("repeats", static_cast<double>(repeats));

  std::vector<std::string> headers{"# CRPs (Chow + training)"};
  for (const std::size_t n : ns) headers.push_back("n=" + std::to_string(n));
  Table table(headers);
  for (const std::size_t budget : budgets) {
    std::vector<std::string> row{std::to_string(budget)};
    for (const std::size_t n : ns) {
      const std::size_t test_size = smoke ? 2000 : paper_test_size(n);
      row.push_back(Table::fmt(run_cell(n, budget, repeats, test_size), 2));
    }
    table.add_row(row);
  }
  reporter.print(std::cout, table);

  std::cout
      << "\nPaper (FPGA) values for comparison:\n"
      << "  1000: 71.93 / 91.52 / 92.55      2500: 81.02 / 92.04 / 93.80\n"
      << "  5000: 84.94 / 91.45 / 93.57     10000: 88.65 / 91.85 / 93.69\n"
      << "\nKey insight (paper Section V-A): the accuracy cannot be\n"
      << "increased arbitrarily by adding CRPs — the plateau certifies that\n"
      << "the LTF representation of BR PUFs is invalid.\n";
  return reporter.finish();
}
