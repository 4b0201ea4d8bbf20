// Chow-parameter estimation and LTF reconstruction (De–Diakonikolas–
// Feldman–Servedio, JACM'14 — reference [25] of the paper).
//
// The Chow parameters of f are its n+1 degree-0/1 Fourier coefficients
//   chow_0 = E[f],  chow_i = E[f(x) x_i].
// Chow's theorem: they uniquely determine an LTF, and [25] reconstructs an
// eps-close LTF from approximate Chow parameters in polynomial time. Table
// II runs exactly this pipeline against BR-PUF CRPs: IF a BR PUF were an
// LTF, the reconstruction's accuracy would be driven arbitrarily high by
// more CRPs — the observed plateau refutes the representation.
//
// We implement the practical variant: Chow vector as the weight direction,
// Gaussian-limit threshold matched to the observed bias, plus optional
// Chow-matching correction rounds (the gradient scheme at the heart of
// [25]'s algorithm).
#pragma once

#include <vector>

#include "boolfn/ltf.hpp"
#include "boolfn/truth_table.hpp"

namespace pitfalls::ml {

using support::BitVec;

struct ChowParameters {
  double degree0 = 0.0;          // E[f]
  std::vector<double> degree1;   // E[f x_i], i = 0..n-1

  std::size_t num_vars() const { return degree1.size(); }
  /// Degree-1 Fourier weight sum_i chow_i^2.
  double degree1_weight() const;
};

/// Empirical Chow parameters from a labelled CRP set (+/-1 responses): the
/// degree <= 1 entries of boolfn::estimate_coefficients_from_data.
ChowParameters estimate_chow(const std::vector<BitVec>& challenges,
                             const std::vector<int>& responses);

/// Exact Chow parameters of a materialised function: the degree <= 1
/// entries of boolfn::FourierSpectrum::of.
ChowParameters exact_chow(const boolfn::TruthTable& table);

struct ChowReconstructionConfig {
  /// Chow-matching correction rounds (0 = plain Chow direction + threshold).
  std::size_t correction_rounds = 0;
  /// Correction step size.
  double step = 0.5;
};

/// Build the LTF f' from (approximate) Chow parameters. The correction
/// rounds re-estimate the hypothesis' own Chow parameters on the given
/// challenges and move the weights toward the target's (requires a
/// non-empty challenge list when rounds > 0).
boolfn::Ltf reconstruct_ltf(const ChowParameters& target,
                            const ChowReconstructionConfig& config = {},
                            const std::vector<BitVec>& challenges = {});

}  // namespace pitfalls::ml
