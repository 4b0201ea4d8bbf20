// Cross-module integration tests: each one runs a shrunken version of a
// paper experiment end-to-end, tying PUF simulators, learners, locking,
// SAT machinery and the audit framework together.
#include <gtest/gtest.h>

#include "attack/sat_attack.hpp"
#include "boolfn/truth_table.hpp"
#include "circuit/generator.hpp"
#include "core/bounds.hpp"
#include "core/pitfalls.hpp"
#include "lock/combinational.hpp"
#include "lock/fsm_obfuscation.hpp"
#include "ml/anf_learner.hpp"
#include "ml/chow.hpp"
#include "ml/halfspace_tester.hpp"
#include "ml/lmn.hpp"
#include "ml/lstar.hpp"
#include "ml/perceptron.hpp"
#include "puf/bistable_ring.hpp"
#include "puf/crp.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/combinatorics.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls;
using boolfn::TruthTable;
using puf::BistableRingConfig;
using puf::BistableRingPuf;
using puf::CrpSet;
using puf::XorArbiterPuf;
using support::BitVec;
using support::Rng;

// --------------------------------------------------- Table II pipeline

TEST(Integration, TableTwoPipelinePlateausBelowPerfect) {
  // Full Table II pipeline at n=16: estimate Chow parameters from BR-PUF
  // CRPs, build f', train a Perceptron on f'-labelled challenges, test
  // against the real PUF. More CRPs must NOT push accuracy to ~100%.
  Rng rng(1);
  const BistableRingPuf br(BistableRingConfig::paper_instance(16), rng);
  Rng collect(2);
  const CrpSet chow_set = CrpSet::collect_uniform(br, 10000, collect);
  const CrpSet test_set = CrpSet::collect_uniform(br, 8000, collect);

  const auto chow = ml::estimate_chow(chow_set.challenges(), chow_set.responses());
  const boolfn::Ltf f_prime = ml::reconstruct_ltf(chow);

  // Train the Perceptron on challenges re-labelled by f'.
  const CrpSet train = chow_set.relabel(f_prime);
  Rng train_rng(3);
  const ml::LinearModel model =
      ml::Perceptron({.max_epochs = 32}).fit_model(
          train.challenges(), train.responses(), ml::pm_with_bias, train_rng);

  const double accuracy = test_set.accuracy_of(model);
  EXPECT_GT(accuracy, 0.7);   // far better than chance...
  EXPECT_LT(accuracy, 0.97);  // ...but the plateau is real: BR != LTF
}

TEST(Integration, TableTwoPlateauIsRepresentationNotSampleSize) {
  // Against a *true* LTF the very same pipeline does converge toward
  // perfect accuracy — isolating the representation as the culprit.
  Rng rng(5);
  BistableRingConfig cfg;
  cfg.bits = 16;
  cfg.nonlinear_share = 0.0;  // exact halfspace
  const BistableRingPuf ltf_like(cfg, rng);
  Rng collect(6);
  const CrpSet chow_set = CrpSet::collect_uniform(ltf_like, 20000, collect);
  const CrpSet test_set = CrpSet::collect_uniform(ltf_like, 8000, collect);

  const auto chow = ml::estimate_chow(chow_set.challenges(), chow_set.responses());
  const boolfn::Ltf f_prime = ml::reconstruct_ltf(chow);
  EXPECT_GT(test_set.accuracy_of(f_prime), 0.95);
}

// -------------------------------------------------- Table III pipeline

TEST(Integration, TableThreeTesterSeparatesBrFromLtf) {
  Rng rng(7);
  const BistableRingPuf br(BistableRingConfig::paper_instance(16), rng);
  BistableRingConfig ltf_cfg;
  ltf_cfg.bits = 16;
  ltf_cfg.nonlinear_share = 0.0;
  const BistableRingPuf ltf_like(ltf_cfg, rng);

  const ml::HalfspaceTester tester(0.12);
  Rng test_rng(8);
  const auto br_report = tester.test(br, 40000, test_rng);
  const auto ltf_report = tester.test(ltf_like, 40000, test_rng);
  EXPECT_FALSE(br_report.accepted);
  EXPECT_TRUE(ltf_report.accepted);
  EXPECT_GT(br_report.far_from_halfspace,
            ltf_report.far_from_halfspace + 0.1);
}

// ------------------------------------------- Corollary 1 demonstration

TEST(Integration, LmnSampleDemandTracksCorollaryOneShape) {
  // With a fixed sample budget, LMN accuracy decays as k rises (its demand
  // is n^{O(k^2/eps^2)}), matching the analytic bound's blow-up.
  Rng rng(9);
  Rng learn_rng(10);
  const ml::LmnLearner learner({.degree = 2, .prune_below = 0.0});
  std::vector<double> accuracies;
  for (std::size_t k : {1u, 2u, 4u}) {
    const XorArbiterPuf puf = XorArbiterPuf::independent(10, k, 0.0, rng);
    const auto view = puf.feature_space_view();
    const auto h = learner.learn(view, 8000, learn_rng);
    accuracies.push_back(1.0 - TruthTable::from_function(h).distance(
                                   TruthTable::from_function(view)));
  }
  EXPECT_GT(accuracies[0], accuracies[2] + 0.1);

  // And the analytic Table I row must blow up accordingly.
  const double bound_k1 = core::lmn_crp_bound(10, 1, 0.5, 0.01);
  const double bound_k4 = core::lmn_crp_bound(10, 4, 0.5, 0.01);
  EXPECT_GT(bound_k4 / bound_k1, 1e6);
}

// ------------------------------------------- Corollary 2 demonstration

TEST(Integration, MembershipQueriesLearnXorOfNearJuntaChains) {
  // Corollary 2's pipeline made concrete: XOR of decaying-weight chains ~=
  // sparse low-degree polynomial in the dominant variables; the
  // bounded-degree ANF learner + MQ access recovers a high-accuracy model
  // with polynomially many queries.
  Rng rng(11);
  const std::size_t n = 14;
  // Build 2 chains with sharply decaying weights (near 2-juntas each).
  std::vector<puf::ArbiterPuf> chains;
  for (int c = 0; c < 2; ++c) {
    std::vector<double> w(n + 1, 0.0);
    w[0] = 2.0 + rng.uniform01();
    w[1] = 1.0 + rng.uniform01();
    for (std::size_t i = 2; i <= n; ++i) w[i] = 0.02 * rng.gaussian();
    chains.emplace_back(std::move(w), 0.0);
  }
  const XorArbiterPuf puf{std::move(chains)};
  const auto target = puf.feature_space_view();

  // The feature-space function is (nearly) a function of 4 variables;
  // interpolate its ANF at degree 4.
  ml::FunctionMembershipOracle oracle(target);
  const auto result = ml::learn_anf_bounded_degree(oracle, 4);
  Rng eval(12);
  std::size_t agree = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    BitVec x(n);
    for (std::size_t b = 0; b < n; ++b) x.set(b, eval.coin());
    if (result.polynomial.eval_pm(x) == target.eval_pm(x)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / 4000.0, 0.95);
  EXPECT_EQ(result.membership_queries,
            pitfalls::support::binomial_sum(n, 4));
}

// ------------------------------------ SAT attack as exact MQ learning

TEST(Integration, SatAttackIsExactLearningWithMembershipQueries) {
  // The Section IV point: with chosen inputs (DIPs are chosen challenges),
  // the attacker learns the locked circuit *exactly* — and needs far fewer
  // queries than the 2^n random-example coupon-collector would.
  Rng rng(13);
  circuit::RandomCircuitConfig config;
  config.inputs = 12;
  config.gates = 60;
  config.outputs = 2;
  const circuit::Netlist original = circuit::random_circuit(config, rng);
  const std::size_t key_bits =
      std::min<std::size_t>(12, lock::lockable_gate_count(original));
  const lock::LockedCircuit locked =
      lock::lock_random_xor(original, key_bits, rng);
  attack::CircuitOracle oracle = attack::CircuitOracle::from_netlist(original);
  const auto result = attack::sat_attack(locked, oracle);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(attack::keys_equivalent(original, locked, result.key));
  EXPECT_LT(result.oracle_queries, 100u);  // << 2^12 inputs
}

// --------------------------------------------- L* on obfuscated FSMs

TEST(Integration, LStarDefeatsFsmObfuscationEndToEnd) {
  Rng rng(17);
  const circuit::MealyMachine functional =
      circuit::MealyMachine::random(8, 2, 2, rng);
  const lock::ObfuscatedFsm obf = lock::obfuscate_fsm(functional, 5, rng);
  const circuit::Dfa target = obf.functional_mode_dfa();

  ml::ExactDfaTeacher teacher(target);
  ml::LStarStats stats;
  const circuit::Dfa learned = ml::LStarLearner().learn(teacher, &stats);
  EXPECT_FALSE(circuit::Dfa::distinguishing_word(target, learned).has_value());
  // Membership queries stay polynomial in the machine size.
  EXPECT_LT(stats.membership_queries, 100000u);
}

// ------------------------------------------------- audit consistency

TEST(Integration, AuditFindingsMatchObservedPhenomena) {
  // The auditor flags the BR-as-LTF claim; the tester empirically confirms
  // the same pitfall. Keeping them consistent is the library's raison
  // d'etre.
  const core::PitfallAuditor auditor;
  const auto findings = auditor.audit(core::claims::xu2015_br_ltf(),
                                      core::realistic_hardware_attacker());
  bool representation_flagged = false;
  for (const auto& f : findings)
    if (f.kind == core::PitfallKind::kRepresentationUnvalidated)
      representation_flagged = true;
  ASSERT_TRUE(representation_flagged);

  Rng rng(19);
  const BistableRingPuf br(BistableRingConfig::paper_instance(16), rng);
  Rng test_rng(20);
  const auto report = ml::HalfspaceTester(0.12).test(br, 40000, test_rng);
  EXPECT_FALSE(report.accepted);  // the empirical side of the same finding
}

// ------------------------------------------------- bounds sanity check

TEST(Integration, EmpiricalPerceptronNeedsFarFewerCrpsThanTheBound) {
  // Upper bounds are upper bounds: the empirical CRP demand for a single
  // arbiter chain sits far below the [9] formula — worth checking, since
  // the paper warns against reading bounds as predictions.
  Rng rng(21);
  const puf::ArbiterPuf puf(16, 0.0, rng);
  Rng collect(22);
  const CrpSet all = CrpSet::collect_uniform(puf, 3000, collect);
  const auto [train, test] = all.split_at(2000);
  Rng train_rng(23);
  const ml::LinearModel model = ml::Perceptron().fit_model(
      train.challenges(), train.responses(), ml::parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
  EXPECT_LT(2000.0, core::perceptron_crp_bound(16, 1, 0.05, 0.01));
}

}  // namespace
