// Black-box LMN-feasibility estimation — the paper's Corollary 1 pipeline
// packaged as a measurement tool.
//
// Corollary 1's logic: noise sensitivity NS_eps(h) <= alpha(eps) = k
// sqrt(eps) implies Fourier concentration below degree m = 1/alpha^{-1}
// (eps/2.32), hence an LMN sample bound n^{O(m)}. Given only oracle access
// to an unknown primitive, we estimate NS at several eps, fit the implied
// "effective k" (khat = NS/sqrt(eps)), derive the degree cutoff and the
// sample bound, and report whether a uniform-distribution LMN attacker is
// feasible at a given budget. This turns the paper's theory into the tool
// a designer would actually run against a candidate primitive.
#pragma once

#include <vector>

#include "boolfn/boolean_function.hpp"
#include "support/rng.hpp"

namespace pitfalls::core {

struct LmnFeasibilityConfig {
  /// Flip probabilities at which NS is measured.
  std::vector<double> probe_eps{0.01, 0.02, 0.05};
  /// Samples per NS probe.
  std::size_t samples_per_probe = 20000;
  /// Target accuracy of the hypothetical LMN attack (its confidence is
  /// fixed at delta = 0.01).
  double attack_eps = 0.25;
};

struct LmnFeasibilityReport {
  /// (eps, measured NS) pairs.
  std::vector<std::pair<double, double>> noise_sensitivity;
  /// Effective KOS constant: max over probes of NS/sqrt(eps).
  double effective_k = 0.0;
  /// Degree cutoff m = 2.32 khat^2 / attack_eps^2 (Corollary 1's formula).
  double degree_cutoff = 0.0;
  /// Implied sample bound n^m ln(1/delta), delta = 0.01 (inf when
  /// astronomically large).
  double sample_bound = 0.0;
  /// Number of low-degree coefficients an LMN run would estimate
  /// (saturates at UINT64_MAX).
  std::uint64_t coefficients = 0;
  /// Feasible at the given budget?
  bool feasible_at_budget = false;
  std::size_t budget = 0;
};

/// Probe `target` and derive the Corollary 1 quantities. `budget` is the
/// CRP budget against which feasibility is judged.
LmnFeasibilityReport estimate_lmn_feasibility(
    const boolfn::BooleanFunction& target, std::size_t budget,
    support::Rng& rng, const LmnFeasibilityConfig& config = {});

}  // namespace pitfalls::core
