#include "ml/anf_learner.hpp"

#include "obs/trace.hpp"
#include "support/combinatorics.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

AnfLearnResult learn_anf_bounded_degree(MembershipOracle& oracle,
                                        std::size_t degree) {
  const std::size_t n = oracle.num_vars();
  PITFALLS_REQUIRE(degree <= n, "degree exceeds arity");
  PITFALLS_REQUIRE(support::binomial_sum(n, degree) < (1ULL << 26),
                   "query budget for this degree is impractically large");

  const std::size_t start_queries = oracle.queries();
  boolfn::AnfPolynomial poly(n);

  // subsets_up_to_size enumerates by increasing cardinality, so when S is
  // processed every proper subset's coefficient is already known and
  //   a_S = f(1_S) XOR (XOR of a_T for known monomials T strictly inside S).
  for (const auto& subset : support::subsets_up_to_size(n, degree)) {
    const BitVec point = support::subset_mask(n, subset);
    bool value = oracle.query_f2(point);
    for (const auto& monomial : poly.monomials())
      if (monomial != point && monomial.is_subset_of(point)) value = !value;
    if (value) poly.toggle_monomial(point);
  }

  AnfLearnResult result{std::move(poly), oracle.queries() - start_queries};
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("ml.anf.interpolations").add(1);
  registry.counter("ml.anf.membership_queries").add(result.membership_queries);
  return result;
}

namespace {

/// Safety cap on the monomials a sparse-polynomial hypothesis collects.
constexpr std::size_t kMaxTerms = 100000;

/// g = target XOR hypothesis, evaluated with one membership query.
bool residual(MembershipOracle& mq, const boolfn::AnfPolynomial& h,
              const BitVec& x) {
  return mq.query_f2(x) != h.eval_f2(x);
}

/// Descend from a true point of g to a locally minimal one by clearing
/// groups of up to `group_size` set bits while g stays 1.
BitVec descend_to_minimal(MembershipOracle& mq,
                          const boolfn::AnfPolynomial& h, BitVec y,
                          std::size_t group_size) {
  bool improved = true;
  while (improved) {
    improved = false;
    const auto bits = y.set_bits();
    // Group size 1 first (cheap), then larger groups to escape parity-style
    // local minima where no single bit can be cleared.
    for (std::size_t s = 1; s <= group_size && !improved; ++s) {
      if (bits.size() < s) break;
      for (const auto& combo : support::subsets_of_size(bits.size(), s)) {
        BitVec candidate = y;
        for (auto idx : combo) candidate.set(bits[idx], false);
        if (residual(mq, h, candidate)) {
          y = candidate;
          improved = true;
          break;
        }
      }
    }
  }
  return y;
}

}  // namespace

SparsePolyResult SparsePolyLearner::learn(MembershipOracle& mq,
                                          EquivalenceOracle& eq) const {
  PITFALLS_REQUIRE(config_.descent_group_size >= 1,
                   "descent group size must be >= 1");
  PITFALLS_REQUIRE(config_.max_minimal_support <= 24,
                   "downset interpolation cap too large");

  const std::size_t n = mq.num_vars();
  const std::size_t start_queries = mq.queries();
  boolfn::AnfPolynomial h(n);

  SparsePolyResult result{boolfn::AnfPolynomial(n), 0, 0, false};
  for (;;) {
    const auto cex = eq.counterexample(h);
    ++result.equivalence_queries;
    if (!cex.has_value()) {
      result.exact = true;
      break;
    }
    PITFALLS_ENSURE(residual(mq, h, *cex),
                    "equivalence oracle returned a non-counterexample");

    const BitVec y =
        descend_to_minimal(mq, h, *cex, config_.descent_group_size);
    const auto bits = y.set_bits();
    PITFALLS_REQUIRE(bits.size() <= config_.max_minimal_support,
                     "minimal true point too large; raise "
                     "max_minimal_support or descent_group_size");

    // Interpolate the exact ANF of g on the downset of y: monomials of g not
    // contained in y vanish on every x <= y, so the Moebius transform over
    // the 2^|y| sub-points yields true coefficients.
    const std::size_t k = bits.size();
    std::vector<std::uint8_t> a(std::size_t{1} << k);
    for (std::size_t sub = 0; sub < a.size(); ++sub) {
      BitVec point(n);
      for (std::size_t j = 0; j < k; ++j)
        if ((sub >> j) & 1U) point.set(bits[j], true);
      a[sub] = residual(mq, h, point) ? 1 : 0;
    }
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t sub = 0; sub < a.size(); ++sub)
        if ((sub >> j) & 1U) a[sub] ^= a[sub ^ (std::size_t{1} << j)];

    std::size_t added = 0;
    for (std::size_t sub = 0; sub < a.size(); ++sub) {
      if (!a[sub]) continue;
      BitVec monomial(n);
      for (std::size_t j = 0; j < k; ++j)
        if ((sub >> j) & 1U) monomial.set(bits[j], true);
      h.toggle_monomial(monomial);
      ++added;
    }
    PITFALLS_ENSURE(added > 0, "downset of a true point held no monomial");
    PITFALLS_REQUIRE(h.sparsity() <= kMaxTerms,
                     "hypothesis exceeded the term cap");
  }

  result.hypothesis = std::move(h);
  result.membership_queries = mq.queries() - start_queries;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("ml.sparsepoly.runs").add(1);
  registry.counter("ml.sparsepoly.membership_queries")
      .add(result.membership_queries);
  registry.counter("ml.sparsepoly.equivalence_queries")
      .add(result.equivalence_queries);
  registry.counter("ml.sparsepoly.terms").add(result.hypothesis.sparsity());
  return result;
}

}  // namespace pitfalls::ml
