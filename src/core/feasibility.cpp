#include "core/feasibility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "boolfn/fourier.hpp"
#include "support/combinatorics.hpp"
#include "support/require.hpp"

namespace pitfalls::core {

LmnFeasibilityReport estimate_lmn_feasibility(
    const boolfn::BooleanFunction& target, std::size_t budget,
    support::Rng& rng, const LmnFeasibilityConfig& config) {
  PITFALLS_REQUIRE(!config.probe_eps.empty(), "need at least one probe");
  PITFALLS_REQUIRE(config.samples_per_probe > 0, "need probe samples");
  PITFALLS_REQUIRE(config.attack_eps > 0.0 && config.attack_eps < 1.0,
                   "attack eps must be in (0,1)");
  PITFALLS_REQUIRE(budget > 0, "need a positive budget");

  LmnFeasibilityReport report;
  report.budget = budget;

  for (const double eps : config.probe_eps) {
    PITFALLS_REQUIRE(eps > 0.0 && eps < 0.5, "probe eps must be in (0,0.5)");
    const double ns = boolfn::estimate_noise_sensitivity(
        target, eps, config.samples_per_probe, rng);
    report.noise_sensitivity.emplace_back(eps, ns);
    report.effective_k =
        std::max(report.effective_k, ns / std::sqrt(eps));
  }

  // Corollary 1: m = 2.32 khat^2 / eps^2 at the attack accuracy.
  report.degree_cutoff = 2.32 * report.effective_k * report.effective_k /
                         (config.attack_eps * config.attack_eps);

  constexpr double kAttackDelta = 0.01;
  const double n = static_cast<double>(target.num_vars());
  const double log_bound = report.degree_cutoff * std::log(n) +
                           std::log(std::log(1.0 / kAttackDelta));
  report.sample_bound = log_bound > 700.0
                            ? std::numeric_limits<double>::infinity()
                            : std::exp(log_bound);

  const auto degree = static_cast<std::uint64_t>(
      std::ceil(std::min(report.degree_cutoff, n)));
  report.coefficients =
      support::binomial_sum(target.num_vars(), degree);

  report.feasible_at_budget =
      std::isfinite(report.sample_bound) &&
      report.sample_bound <= static_cast<double>(budget);
  return report;
}

}  // namespace pitfalls::core
