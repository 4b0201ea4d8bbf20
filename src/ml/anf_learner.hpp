// Exact learners for sparse multivariate polynomials over F2 with
// membership queries — the algorithmic substance behind Corollary 2 (the
// LearnPoly row of Table I, Schapire–Sellie [21] / Bshouty [24] setting).
//
// Two learners are provided:
//
//   * learn_anf_bounded_degree — interpolation of every ANF coefficient of
//     degree <= r by querying the points 1_S (supports of size <= r) and
//     running the incremental Moebius inversion. Exactly recovers any
//     degree-<= r polynomial with sum_{i<=r} C(n,i) = poly(n) queries: the
//     concrete instantiation of "poly(n) membership queries suffice".
//
//   * SparsePolyLearner — MQ + EQ loop in the Schapire–Sellie style for
//     sparse polynomials of unbounded a-priori degree: each counterexample
//     is descended to a small true point of f XOR h, the ANF of that
//     downset is interpolated exactly, and all discovered monomials are
//     folded into h. Terminates after at most sparsity(f) equivalence
//     queries; each round costs O(|support|^2 + 2^|minimal point|) MQs.
#pragma once

#include <optional>

#include "boolfn/anf.hpp"
#include "ml/oracle.hpp"

namespace pitfalls::ml {

struct AnfLearnResult {
  boolfn::AnfPolynomial polynomial;
  std::size_t membership_queries = 0;
};

/// Interpolate all ANF coefficients up to `degree`. The result equals the
/// target iff the target's true degree is <= `degree`; callers wanting a
/// certificate should follow up with an equivalence query.
AnfLearnResult learn_anf_bounded_degree(MembershipOracle& oracle,
                                        std::size_t degree);

struct SparsePolyConfig {
  /// Abort if a locally minimal true point still has support larger than
  /// this (the 2^|y| downset interpolation must stay affordable).
  std::size_t max_minimal_support = 16;
  /// Try removing groups of up to this many bits during descent (1 = single
  /// bits; >=2 also escapes parity-style local minima).
  std::size_t descent_group_size = 2;
};

struct SparsePolyResult {
  boolfn::AnfPolynomial hypothesis;
  std::size_t membership_queries = 0;
  std::size_t equivalence_queries = 0;
  bool exact = false;  // the EQ oracle accepted the final hypothesis
};

class SparsePolyLearner {
 public:
  explicit SparsePolyLearner(SparsePolyConfig config = {}) : config_(config) {}

  SparsePolyResult learn(MembershipOracle& mq, EquivalenceOracle& eq) const;

 private:
  SparsePolyConfig config_;
};

}  // namespace pitfalls::ml
