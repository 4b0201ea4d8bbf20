// Ablation bench: attribute-noise tolerance of the LMN algorithm
// (advantage (1) in the paper's Corollary 1 discussion: "the LMN algorithm
// can tolerate the noise in its given examples").
//
// Protocol, part 1: train LMN and the Perceptron on CRPs whose labels come
// from ONE noisy measurement each (attribute noise per footnote 1),
// evaluate against the ideal PUF. LMN's coefficient estimates average the
// noise away; the Perceptron chases every mislabelled example.
//
// Part 2 (η-sweep × budget-sweep): the same learners driven through the
// fault-injection oracle layer (ml/robust) against an arbiter PUF. Each row
// reports the degradation status, the held-out accuracy the attacker can
// measure, the true accuracy against the ideal PUF, and the security
// conclusion an evaluator would draw — the table shows exactly where a
// flipped classification-noise rate or a lockdown budget flips the verdict
// from "attack succeeds" to "attack fails" (the paper's pitfall).
#include <iostream>
#include <vector>

#include "boolfn/truth_table.hpp"
#include "ml/features.hpp"
#include "ml/lmn.hpp"
#include "ml/perceptron.hpp"
#include "ml/robust/learners.hpp"
#include "obs/bench_reporter.hpp"
#include "puf/arbiter.hpp"
#include "puf/crp.hpp"
#include "puf/xor_arbiter.hpp"
#include "store/checkpoint.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using namespace pitfalls::ml::robust;
using boolfn::BooleanFunction;
using boolfn::TruthTable;
using puf::CrpSet;
using support::BitVec;
using support::Rng;
using support::Table;

double ideal_accuracy(const BooleanFunction& hypothesis,
                      const BooleanFunction& target) {
  return 1.0 - TruthTable::from_function(hypothesis)
                   .distance(TruthTable::from_function(target));
}

const char* verdict(double accuracy) {
  return accuracy >= 0.9 ? "attack succeeds" : "attack fails";
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("noise_tolerance", argc, argv);
  const bool smoke = reporter.smoke();

  // Crash-safe sweep (--checkpoint/--resume): part 2's cells journal what
  // the token answered, beneath the fault channel, and store their
  // outcomes; a killed run resumed from the snapshot re-walks the in-flight
  // cell's channel over the journaled answers (asking the token nothing
  // twice) and skips completed cells, ending byte-identical to an
  // uninterrupted run. The tag's version names the journal layout and the
  // outcome encoding, so a snapshot in another layout starts clean instead
  // of misparsing.
  const auto session = store::open_bench_session(reporter, 7,
                                                 "noise_tolerance.v3");

  std::cout << "== Attribute-noise tolerance: LMN vs Perceptron ==\n"
            << "(2-XOR arbiter PUF, n=12, feature-space view, noisy "
               "training CRPs)\n\n";

  const std::size_t n = 12;
  const std::size_t k = 2;
  const std::size_t samples = smoke ? 3000 : 20000;
  const std::size_t repeats = smoke ? 1 : 3;
  reporter.note("samples", static_cast<double>(samples));

  {
    Table table({"noise sigma", "label error rate [%]",
                 "LMN accuracy [%]", "Perceptron accuracy [%]"});
    const std::vector<double> sigmas =
        smoke ? std::vector<double>{0.0, 0.5}
              : std::vector<double>{0.0, 0.25, 0.5, 1.0, 2.0};
    for (const double sigma : sigmas) {
      double label_err = 0.0;
      double lmn_acc = 0.0;
      double perc_acc = 0.0;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        Rng rng(100 * rep + 17);
        const puf::XorArbiterPuf puf =
            puf::XorArbiterPuf::independent(n, k, sigma, rng);
        const auto ideal = puf.feature_space_view();

        // Noisy labels over uniform feature-space inputs. We sample inputs
        // in feature space directly: Phi is a bijection, so per-chain
        // evaluation via the LTF view plus margin noise reproduces
        // eval_noisy.
        Rng collect(200 * rep + 19);
        std::vector<BitVec> challenges;
        std::vector<int> labels;
        std::size_t mislabeled = 0;
        for (std::size_t s = 0; s < samples; ++s) {
          BitVec x(n);
          for (std::size_t b = 0; b < n; ++b) x.set(b, collect.coin());
          int noisy = 1;
          for (std::size_t c = 0; c < k; ++c) {
            const auto ltf = puf.chain(c).as_feature_space_ltf();
            const double margin =
                ltf.margin(x) + collect.gaussian(0.0, sigma);
            noisy *= margin < 0 ? -1 : +1;
          }
          if (noisy != ideal.eval_pm(x)) ++mislabeled;
          labels.push_back(noisy);
          challenges.push_back(std::move(x));
        }
        label_err += static_cast<double>(mislabeled) / static_cast<double>(samples);

        // LMN from the noisy data.
        const ml::LmnLearner lmn({.degree = 2, .prune_below = 0.0});
        const auto h = lmn.learn_from_data(challenges, labels);
        lmn_acc += ideal_accuracy(h, ideal);

        // Perceptron from the same noisy data (degree-2 monomial features
        // so the hypothesis class is comparable).
        Rng train_rng(300 * rep + 23);
        const auto features = [](const BitVec& x) {
          return ml::monomial_features(x, 2);
        };
        const ml::LinearModel model =
            ml::Perceptron({.max_epochs = 24}).fit_model(
                challenges, labels, features, train_rng);
        perc_acc += ideal_accuracy(model, ideal);
      }
      table.add_row({Table::fmt(sigma, 2),
                     Table::fmt(100.0 * label_err / static_cast<double>(repeats), 1),
                     Table::fmt(100.0 * lmn_acc / static_cast<double>(repeats), 1),
                     Table::fmt(100.0 * perc_acc / static_cast<double>(repeats), 1)});
    }
    reporter.print(std::cout, table,
                   "-- attribute noise (one noisy measurement per label) --");
  }

  // ---- part 2: classification noise η × query budget, via ml/robust ----

  std::cout << "\n== Fault-injected oracle: eta-sweep x budget-sweep ==\n"
            << "(arbiter PUF, parity features / degree-2 LMN; status is the\n"
            << " LearnOutcome the budgeted run reports)\n\n";

  const std::size_t rn = smoke ? 10 : 14;
  Rng setup(7);
  const puf::ArbiterPuf target(rn, 0.0, setup);
  const std::vector<double> etas =
      smoke ? std::vector<double>{0.0, 0.2}
            : std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3};
  const std::vector<std::size_t> budgets =
      smoke ? std::vector<std::size_t>{200, 2000}
            : std::vector<std::size_t>{500, 2000, 8000};
  const std::size_t want_train = smoke ? 1500 : 6000;
  const std::size_t want_holdout = smoke ? 300 : 1000;

  Table sweep({"eta", "budget", "learner", "status", "heldout [%]",
               "ideal acc [%]", "conclusion"});
  // Row renderer shared by both learners (hypothesis types differ).
  const auto add_sweep_row = [&](double eta, std::size_t budget,
                                 const char* learner, const auto& outcome) {
    const double heldout = outcome.diagnostics.count("heldout_accuracy")
                               ? outcome.diagnostics.at("heldout_accuracy")
                               : 0.0;
    const double ideal =
        outcome.best_hypothesis
            ? ideal_accuracy(*outcome.best_hypothesis, target)
            : 0.5;
    sweep.add_row({Table::fmt(eta, 2), std::to_string(budget), learner,
                   to_string(outcome.status), Table::fmt(100.0 * heldout, 1),
                   Table::fmt(100.0 * ideal, 1), verdict(ideal)});
  };
  std::size_t cell_index = 0;
  for (const double eta : etas) {
    for (const std::size_t budget : budgets) {
      FaultConfig fc;
      fc.flip_rate = eta;
      fc.query_budget = budget;
      RobustLearnConfig config;
      config.train_queries = want_train;
      config.holdout_queries = want_holdout;

      {
        const std::string cell = "cell." + std::to_string(cell_index++);
        const auto outcome = store::checkpointed_unit<
            LearnOutcome<ml::LinearModel>>(
            session.get(), cell,
            [&] {
              ml::FunctionMembershipOracle token(target);
              store::RecordingOracle journal(token, session.get(),
                                             cell + ".log");
              FaultyMembershipOracle oracle(journal, fc, 1000 + budget);
              Rng rng(41);
              return robust_perceptron(oracle, ml::parity_with_bias, config,
                                       rng);
            },
            [](auto& w, const LearnOutcome<ml::LinearModel>& o) {
              store::put_outcome(w, o, [](auto& hw, const ml::LinearModel& m) {
                store::put_linear_model(hw, m);
              });
            },
            [](auto& r) {
              return store::get_outcome<ml::LinearModel>(r, [](auto& hr) {
                return store::get_linear_model(hr, ml::parity_with_bias);
              });
            });
        add_sweep_row(eta, budget, "perceptron", outcome);
      }
      {
        const std::string cell = "cell." + std::to_string(cell_index++);
        const auto outcome = store::checkpointed_unit<
            LearnOutcome<ml::SparseFourierHypothesis>>(
            session.get(), cell,
            [&] {
              ml::FunctionMembershipOracle token(target);
              store::RecordingOracle journal(token, session.get(),
                                             cell + ".log");
              FaultyMembershipOracle oracle(journal, fc, 2000 + budget);
              Rng rng(43);
              return robust_lmn(oracle, 2, config, rng);
            },
            [](auto& w, const LearnOutcome<ml::SparseFourierHypothesis>& o) {
              store::put_outcome(
                  w, o, [](auto& hw, const ml::SparseFourierHypothesis& h) {
                    store::put_sparse_fourier(hw, h);
                  });
            },
            [](auto& r) {
              return store::get_outcome<ml::SparseFourierHypothesis>(
                  r,
                  [](auto& hr) { return store::get_sparse_fourier(hr); });
            });
        add_sweep_row(eta, budget, "lmn", outcome);
      }
    }
  }
  reporter.print(std::cout, sweep,
                 "-- where the security conclusion flips --");

  std::cout
      << "\nShape to observe: the ideal-model rows (eta=0, large budget) say\n"
      << "\"attack succeeds\" — the PUF is modelable. Raising eta or locking\n"
      << "the query budget flips rows to \"attack fails\" without the target\n"
      << "getting any stronger: an evaluation that silently assumes a clean,\n"
      << "unthrottled oracle overstates the attack, and one that measures\n"
      << "only the faulty channel overstates the defence. The status column\n"
      << "shows which resource ran out first.\n";
  return reporter.finish();
}
