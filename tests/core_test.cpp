// Tests for pitfalls::core: the Table I bound formulas, adversary-model
// algebra and the pitfall auditor.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adversary.hpp"
#include "core/bounds.hpp"
#include "core/pitfalls.hpp"

namespace {

using namespace pitfalls::core;

// --------------------------------------------------------------- bounds

TEST(Bounds, VcDimGrowsInBothParameters) {
  EXPECT_LT(vc_dim_xor_arbiter(16, 1), vc_dim_xor_arbiter(64, 1));
  EXPECT_LT(vc_dim_xor_arbiter(16, 1), vc_dim_xor_arbiter(16, 4));
  EXPECT_GT(vc_dim_xor_arbiter(16, 1), 16.0);
}

TEST(Bounds, PerceptronBoundIsExponentialInK) {
  const double k2 = perceptron_crp_bound(64, 2, 0.05, 0.01);
  const double k4 = perceptron_crp_bound(64, 4, 0.05, 0.01);
  // (n+1)^k growth: quadrupling k squares the dominant term.
  EXPECT_GT(k4 / k2, 1000.0);
}

TEST(Bounds, GeneralBoundIsPolynomialInK) {
  const double k2 = general_crp_bound(64, 2, 0.05, 0.01);
  const double k8 = general_crp_bound(64, 8, 0.05, 0.01);
  EXPECT_LT(k8 / k2, 10.0);  // linear-ish in k
}

TEST(Bounds, GeneralBeatsPerceptronForLargeK) {
  // The paper's point about algorithm-specific bounds: the VC bound is
  // exponentially smaller once k grows.
  const double perceptron = perceptron_crp_bound(64, 6, 0.05, 0.01);
  const double general = general_crp_bound(64, 6, 0.05, 0.01);
  EXPECT_LT(general * 1000.0, perceptron);
}

TEST(Bounds, LmnCutoffMatchesCorollaryFormula) {
  EXPECT_NEAR(lmn_degree_cutoff(2, 0.25), 2.32 * 4 / 0.0625, 1e-9);
}

TEST(Bounds, LmnBoundFeasibleForConstantKInfeasibleForLarge) {
  const double small = lmn_crp_bound(64, 1, 0.5, 0.01);
  EXPECT_TRUE(std::isfinite(small));
  const double large = lmn_crp_bound(64, 8, 0.1, 0.01);
  EXPECT_TRUE(std::isinf(large));
}

TEST(Bounds, LearnPolyBoundPolynomialInN) {
  const double n16 = learnpoly_query_bound(16, 2, 0.5, 0.01);
  const double n64 = learnpoly_query_bound(64, 2, 0.5, 0.01);
  EXPECT_TRUE(std::isfinite(n16));
  EXPECT_LT(n64 / n16, 8.0);  // ~linear in n for fixed eps
}

TEST(Bounds, Table1HasFourRowsInPaperOrder) {
  const auto rows = table1_rows(64, 4, 0.05, 0.01);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].source, "[9]");
  EXPECT_EQ(rows[0].distribution, "Arbitrary");
  EXPECT_EQ(rows[1].source, "General");
  EXPECT_EQ(rows[2].algorithm, "LMN [16]");
  EXPECT_EQ(rows[3].access, "Membership queries");
  for (const auto& row : rows) EXPECT_GT(row.value, 0.0);
}

TEST(Bounds, ValidateParameters) {
  EXPECT_THROW(perceptron_crp_bound(0, 1, 0.1, 0.1), std::invalid_argument);
  EXPECT_THROW(general_crp_bound(16, 1, 1.5, 0.1), std::invalid_argument);
  EXPECT_THROW(lmn_crp_bound(16, 1, 0.1, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------ adversary

TEST(Adversary, DescribeMentionsEveryAxis) {
  AdversaryModel model;
  const std::string text = model.describe();
  EXPECT_NE(text.find("arbitrary distribution"), std::string::npos);
  EXPECT_NE(text.find("random examples"), std::string::npos);
  EXPECT_NE(text.find("approximate"), std::string::npos);
  EXPECT_NE(text.find("proper"), std::string::npos);
}

TEST(Adversary, StrengthOrderOnAccess) {
  AdversaryModel weak;
  weak.access = AccessType::kRandomExamples;
  AdversaryModel strong = weak;
  strong.access = AccessType::kMembershipAndEquivalence;
  EXPECT_TRUE(at_least_as_strong(strong, weak));
  EXPECT_FALSE(at_least_as_strong(weak, strong));
}

TEST(Adversary, EquivalenceQueriesAddNoPowerOverRandomExamples) {
  // Angluin's simulation: EQ ~ random examples.
  AdversaryModel random_ex;
  random_ex.access = AccessType::kRandomExamples;
  AdversaryModel eq = random_ex;
  eq.access = AccessType::kEquivalenceQueries;
  EXPECT_TRUE(at_least_as_strong(random_ex, eq));
  EXPECT_TRUE(at_least_as_strong(eq, random_ex));
}

TEST(Adversary, ImproperDominatesProper) {
  AdversaryModel proper;
  proper.hypothesis = HypothesisRestriction::kProper;
  AdversaryModel improper = proper;
  improper.hypothesis = HypothesisRestriction::kImproper;
  EXPECT_TRUE(at_least_as_strong(improper, proper));
  EXPECT_FALSE(at_least_as_strong(proper, improper));
}

TEST(Adversary, ExactImpliesApproximate) {
  AdversaryModel exact;
  exact.goal = InferenceGoal::kExact;
  AdversaryModel approx = exact;
  approx.goal = InferenceGoal::kApproximate;
  EXPECT_TRUE(at_least_as_strong(exact, approx));
  EXPECT_FALSE(at_least_as_strong(approx, exact));
}

// -------------------------------------------------------------- auditor

TEST(Auditor, FlagsAllPitfallsOfGanji2015AgainstRealisticAttacker) {
  const PitfallAuditor auditor;
  const auto findings =
      auditor.audit(claims::ganji2015_xor_bound(), realistic_hardware_attacker());
  // Distribution mismatch + access underestimated + algorithm-specific +
  // hypothesis restriction.
  EXPECT_EQ(findings.size(), 4u);
  bool has_distribution = false;
  bool has_access = false;
  for (const auto& f : findings) {
    if (f.kind == PitfallKind::kDistributionMismatch) has_distribution = true;
    if (f.kind == PitfallKind::kAccessUnderestimated) has_access = true;
  }
  EXPECT_TRUE(has_distribution);
  EXPECT_TRUE(has_access);
}

TEST(Auditor, FlagsExactOnlyArgumentOfShamsi2019) {
  const PitfallAuditor auditor;
  const auto findings = auditor.audit(claims::shamsi2019_impossibility(),
                                      realistic_hardware_attacker());
  bool found = false;
  for (const auto& f : findings)
    if (f.kind == PitfallKind::kExactApproximateConfusion) {
      found = true;
      EXPECT_EQ(f.severity, Severity::kCritical);  // attacker has MQs
    }
  EXPECT_TRUE(found);
}

TEST(Auditor, FlagsUnvalidatedBrRepresentation) {
  const PitfallAuditor auditor;
  const auto findings =
      auditor.audit(claims::xu2015_br_ltf(), realistic_hardware_attacker());
  bool found = false;
  for (const auto& f : findings)
    if (f.kind == PitfallKind::kRepresentationUnvalidated) found = true;
  EXPECT_TRUE(found);
}

TEST(Auditor, AppSatClaimIsLargelyClean) {
  // AppSAT already assumes the strong model: the audit should come back
  // (nearly) empty.
  const PitfallAuditor auditor;
  const auto findings = auditor.audit(claims::appsat2017_online_model(),
                                      realistic_hardware_attacker());
  EXPECT_TRUE(findings.empty());
}

TEST(Auditor, WeakAttackerTriggersFewerFindings) {
  const PitfallAuditor auditor;
  AdversaryModel weak;  // arbitrary distribution, random examples, proper
  const auto strong_findings =
      auditor.audit(claims::ganji2015_xor_bound(), realistic_hardware_attacker());
  const auto weak_findings =
      auditor.audit(claims::ganji2015_xor_bound(), weak);
  EXPECT_LT(weak_findings.size(), strong_findings.size());
}

TEST(Auditor, StringsAreHumanReadable) {
  EXPECT_EQ(to_string(PitfallKind::kDistributionMismatch),
            "distribution mismatch");
  EXPECT_EQ(to_string(Severity::kCritical), "critical");
}

}  // namespace
