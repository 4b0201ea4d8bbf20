#include "ml/halfspace_tester.hpp"

#include <algorithm>
#include <cmath>

#include "ml/chow.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace pitfalls::ml {

HalfspaceTester::HalfspaceTester(double tolerance) : tolerance_(tolerance) {
  PITFALLS_REQUIRE(tolerance > 0.0 && tolerance < 1.0,
                   "tolerance must be in (0,1)");
}

HalfspaceTestReport HalfspaceTester::test(
    const std::vector<BitVec>& challenges,
    const std::vector<int>& responses) const {
  PITFALLS_REQUIRE(challenges.size() >= 2, "need at least two CRPs");
  const ChowParameters chow = estimate_chow(challenges, responses);
  const double m = static_cast<double>(challenges.size());

  HalfspaceTestReport report;
  report.samples = challenges.size();
  report.bias = chow.degree0;
  report.w1_raw = chow.degree1_weight();

  // Unbiased estimate of sum_i fhat(i)^2: E[chat_i^2] = c_i^2 + (1-c_i^2)/m,
  // so subtract the per-coordinate variance term.
  double corrected = 0.0;
  for (auto c : chow.degree1)
    corrected += c * c - (1.0 - c * c) / (m - 1.0);
  report.w1 = std::max(0.0, corrected);

  const double p_plus = std::clamp((1.0 + report.bias) / 2.0, 1e-9, 1.0 - 1e-9);
  const double z = support::normal_quantile(1.0 - p_plus);
  const double pdf = support::normal_pdf(z);
  report.w1_expected_ltf = 4.0 * pdf * pdf;

  report.gap = std::max(0.0, 1.0 - report.w1 / report.w1_expected_ltf);
  report.far_from_halfspace = report.gap;
  report.accepted = report.gap < tolerance_;
  return report;
}

HalfspaceTestReport HalfspaceTester::test(const BooleanFunction& f,
                                          std::size_t m,
                                          support::Rng& rng) const {
  PITFALLS_REQUIRE(m >= 2, "need at least two queries");
  // Generate first, evaluate as one batch: eval_pm draws nothing, so the
  // rng stream (and thus the sample) is unchanged from the scalar loop.
  std::vector<BitVec> challenges;
  challenges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    BitVec x(f.num_vars());
    rng.fill_coins(x);
    challenges.push_back(std::move(x));
  }
  std::vector<int> responses(m);
  f.eval_pm_batch(challenges, responses);
  return test(challenges, responses);
}

std::size_t HalfspaceTester::recommended_samples(std::size_t n, double eps,
                                                 double delta) {
  PITFALLS_REQUIRE(n > 0, "need at least one variable");
  PITFALLS_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
  PITFALLS_REQUIRE(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
  // Each Chow coordinate needs accuracy ~eps/sqrt(n) for W1 accuracy eps;
  // Hoeffding + union bound over n+1 coordinates.
  const double per_coord_eps = eps / std::sqrt(static_cast<double>(n));
  const double m = std::log(2.0 * (static_cast<double>(n) + 1.0) / delta) /
                   (2.0 * per_coord_eps * per_coord_eps);
  return static_cast<std::size_t>(std::ceil(m));
}

}  // namespace pitfalls::ml
