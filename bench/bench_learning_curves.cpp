// Learning-curve bench: the figure-style series behind every CRP-budget
// argument in the paper — empirical modeling-attack accuracy vs number of
// (uniform, random-example) CRPs, for arbiter-PUF variants of growing
// claimed hardness.
//
// Series printed (accuracy % per budget):
//   * 64-stage arbiter chain, logistic regression, parity features;
//   * k-XOR arbiter PUFs, k = 2, 3 (same attack);
//   * feed-forward arbiter PUF (representation mismatch: same attack);
//   * and the Table I "general bound" per construction as the analytic
//     anchor the curves should be compared against.
#include <iostream>

#include "core/bounds.hpp"
#include "ml/features.hpp"
#include "ml/logistic.hpp"
#include "ml/xor_model.hpp"
#include "obs/bench_reporter.hpp"
#include "puf/crp.hpp"
#include "puf/feed_forward.hpp"
#include "puf/interpose.hpp"
#include "puf/xor_arbiter.hpp"
#include "store/checkpoint.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using puf::CrpSet;
using support::Rng;
using support::Table;

/// Modeling-attack accuracy with a k-chain product model (k=1 is ordinary
/// logistic-style regression; k>1 is the Ruehrmair XOR attack [8]).
double attack_accuracy(const puf::Puf& target, std::size_t chains,
                       std::size_t budget, std::size_t seed,
                       std::size_t restarts, std::size_t test_size) {
  Rng collect(seed);
  const CrpSet train = CrpSet::collect_uniform(target, budget, collect);
  const CrpSet test = CrpSet::collect_uniform(target, test_size, collect);
  Rng train_rng(seed + 1);
  ml::XorModelConfig config;
  config.chains = chains;
  config.restarts = restarts;
  const ml::XorChainModel model =
      ml::XorModelAttack(config).fit(train.challenges(), train.responses(),
                                     ml::parity_with_bias, train_rng);
  return test.accuracy_of(model);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("learning_curves", argc, argv);
  const bool smoke = reporter.smoke();

  // Crash-safe sweep (--checkpoint/--resume): each accuracy cell is one
  // (series, budget) attack; finished cells store their accuracy and are
  // not re-fit on resume. All table values are deterministic, so a resumed
  // run is byte-identical to an uninterrupted one (the kill/resume gate
  // asserts exactly that).
  const auto session =
      store::open_bench_session(reporter, 11, "learning_curves.v1");

  std::cout << "== Modeling-attack learning curves (Ruehrmair product-of-"
               "LTFs model [8], parity features, n = 64) ==\n\n";

  const std::vector<std::size_t> budgets =
      smoke ? std::vector<std::size_t>{250, 1000, 4000}
            : std::vector<std::size_t>{250, 500,  1000, 2000,
                                       4000, 8000, 16000};
  const std::size_t restarts = smoke ? 1 : 4;
  const std::size_t test_size = smoke ? 500 : 3000;

  Rng rng(1);
  const puf::XorArbiterPuf chain1 =
      puf::XorArbiterPuf::independent(64, 1, 0.0, rng);
  const puf::XorArbiterPuf chain2 =
      puf::XorArbiterPuf::independent(64, 2, 0.0, rng);
  const puf::XorArbiterPuf chain3 =
      puf::XorArbiterPuf::independent(64, 3, 0.0, rng);
  const puf::FeedForwardArbiterPuf ff(64, 4, 0.0, rng);
  const puf::InterposePuf ipuf(64, 1, 1, 0.0, rng);

  Table table({"# CRPs", "arbiter (k=1)", "2-XOR (2-chain model)",
               "3-XOR (3-chain model)", "feed-forward (1-chain model)",
               "(1,1)-iPUF (2-chain model)"});

  // One checkpointable cell per (series, budget): resume returns the stored
  // accuracy without re-collecting CRPs or re-fitting.
  const auto cell = [&](const char* series, const puf::Puf& target,
                        std::size_t chains, std::size_t budget,
                        std::size_t seed) {
    return store::checkpointed_unit<double>(
        session.get(),
        std::string("cell.") + series + "." + std::to_string(budget),
        [&] {
          return attack_accuracy(target, chains, budget, seed, restarts,
                                 test_size);
        },
        [](support::snapshot::SectionWriter& w, const double& v) {
          w.f64(v);
        },
        [](support::snapshot::SectionReader& r) { return r.f64(); });
  };

  double final_k1 = 0.0, final_k2 = 0.0, final_k3 = 0.0;
  for (const auto budget : budgets) {
    const double k1 = cell("k1", chain1, 1, budget, 10);
    const double k2 = cell("k2", chain2, 2, budget, 20);
    const double k3 = cell("k3", chain3, 3, budget, 30);
    const double ff_acc = cell("ff", ff, 1, budget, 40);
    const double ipuf_acc = cell("ipuf", ipuf, 2, budget, 50);
    table.add_row({std::to_string(budget), Table::fmt(100.0 * k1, 1),
                   Table::fmt(100.0 * k2, 1), Table::fmt(100.0 * k3, 1),
                   Table::fmt(100.0 * ff_acc, 1),
                   Table::fmt(100.0 * ipuf_acc, 1)});
    final_k1 = k1;
    final_k2 = k2;
    final_k3 = k3;
  }
  reporter.print(std::cout, table);
  reporter.note("budget.max", static_cast<double>(budgets.back()));
  reporter.note("accuracy.arbiter.final", final_k1);
  reporter.note("accuracy.2xor.final", final_k2);
  reporter.note("accuracy.3xor.final", final_k3);

  std::cout << "\nAnalytic anchors (general uniform bound, eps=0.05, "
               "delta=0.01):\n";
  for (const std::size_t k : {1u, 2u, 3u}) {
    const double bound = core::general_crp_bound(64, k, 0.05, 0.01);
    std::cout << "  k=" << k << ": " << Table::fmt_or_inf(bound, 0)
              << " CRPs sufficient\n";
    reporter.note("general_crp_bound.k" + std::to_string(k), bound);
  }
  std::cout
      << "\nShapes to observe: (a) the k=1 curve saturates with ~20x fewer\n"
      << "CRPs than the bound guarantees — bounds are sufficiency, not\n"
      << "necessity; (b) each extra XOR chain shifts the phase transition\n"
      << "right (2-XOR breaks at ~1k CRPs, 3-XOR at ~4k) — the empirical\n"
      << "face of the exponential-in-k hardness the paper's Table I traces;\n"
      << "(c) the feed-forward curve saturates far below 100% under the\n"
      << "1-chain model: a representation mismatch, not a sample-size\n"
      << "effect — more CRPs cannot fix it (Section V-A).\n";
  return reporter.finish();
}
