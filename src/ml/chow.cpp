#include "ml/chow.hpp"

#include <algorithm>
#include <cmath>

#include "boolfn/fourier.hpp"
#include "obs/metrics.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace pitfalls::ml {

double ChowParameters::degree1_weight() const {
  double sum = 0.0;
  for (auto c : degree1) sum += c * c;
  return sum;
}

ChowParameters estimate_chow(const std::vector<BitVec>& challenges,
                             const std::vector<int>& responses) {
  PITFALLS_REQUIRE(!challenges.empty(), "empty CRP set");
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("ml.chow.estimates").add(1);
  registry.counter("ml.chow.crps_used").add(challenges.size());
  // The Chow subsets: the empty set, then {0}, ..., {n-1}.
  const std::size_t n = challenges.front().size();
  std::vector<BitVec> subsets(n + 1, BitVec(n));
  for (std::size_t i = 0; i < n; ++i) subsets[i + 1].set(i, true);
  const std::vector<double> coefficients =
      boolfn::estimate_coefficients_from_data(challenges, responses, subsets);
  return {coefficients.front(),
          std::vector<double>(coefficients.begin() + 1, coefficients.end())};
}

ChowParameters exact_chow(const boolfn::TruthTable& table) {
  const auto spectrum = boolfn::FourierSpectrum::of(table);
  ChowParameters chow;
  chow.degree0 = spectrum.coefficient(0);
  for (std::size_t i = 0; i < table.num_vars(); ++i)
    chow.degree1.push_back(spectrum.coefficient(std::uint64_t{1} << i));
  return chow;
}

namespace {

/// Threshold making a unit-margin Gaussian LTF match bias mu = E[f]:
/// Pr[f = +1] = (1 + mu)/2 = Pr[N(0,1) >= theta]  =>  theta = Phi^{-1}((1-mu)/2).
double bias_matched_threshold(double mu, double weight_norm) {
  const double p_plus = std::clamp((1.0 + mu) / 2.0, 1e-9, 1.0 - 1e-9);
  return weight_norm * support::normal_quantile(1.0 - p_plus);
}

}  // namespace

boolfn::Ltf reconstruct_ltf(const ChowParameters& target,
                            const ChowReconstructionConfig& config,
                            const std::vector<BitVec>& challenges) {
  PITFALLS_REQUIRE(target.num_vars() > 0, "need at least one variable");
  std::vector<double> w = target.degree1;
  double norm = std::sqrt(target.degree1_weight());
  if (norm <= 0.0) {
    // Degenerate Chow vector: fall back to a constant classifier in the
    // direction of the bias.
    w.assign(target.num_vars(), 0.0);
    w[0] = 1e-12;
    return boolfn::Ltf(std::move(w), target.degree0 >= 0.0 ? -1.0 : 1.0);
  }

  double theta = bias_matched_threshold(target.degree0, norm);
  if (config.correction_rounds == 0 || challenges.empty())
    return boolfn::Ltf(std::move(w), theta);

  // Chow-matching correction (the iterative core of [25]): move the weight
  // vector toward the gap between the target's Chow parameters and the
  // current hypothesis', measured on the provided challenge sample.
  for (std::size_t round = 0; round < config.correction_rounds; ++round) {
    boolfn::Ltf current(w, theta);
    std::vector<int> labels(challenges.size());
    current.eval_pm_batch(challenges, labels);
    const ChowParameters own = estimate_chow(challenges, labels);

    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] += config.step * (target.degree1[i] - own.degree1[i]);
    norm = 0.0;
    for (auto weight : w) norm += weight * weight;
    norm = std::sqrt(norm);
    if (norm <= 0.0) break;
    theta = bias_matched_threshold(target.degree0, norm);
  }
  return boolfn::Ltf(std::move(w), theta);
}

}  // namespace pitfalls::ml
