#include "ml/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "support/require.hpp"

namespace pitfalls::ml {

ExhaustiveEquivalenceOracle::ExhaustiveEquivalenceOracle(
    const BooleanFunction& target)
    : target_(&target) {
  PITFALLS_REQUIRE(target.num_vars() <= 24,
                   "exhaustive equivalence limited to small arities");
}

std::optional<BitVec> ExhaustiveEquivalenceOracle::counterexample(
    const BooleanFunction& hypothesis) {
  count_call();
  PITFALLS_REQUIRE(hypothesis.num_vars() == target_->num_vars(),
                   "hypothesis arity mismatch");
  const std::size_t n = target_->num_vars();
  const std::uint64_t rows = std::uint64_t{1} << n;
  // Sweep in blocks through the batch plane so bit-sliced targets (PUFs)
  // pay one transposition per block; scanning each block in row order keeps
  // the "first counterexample" contract of the scalar sweep.
  constexpr std::size_t kSweepBlock = 256;
  std::vector<BitVec> block;
  std::vector<int> target_out(kSweepBlock);
  std::vector<int> hypothesis_out(kSweepBlock);
  for (std::uint64_t row = 0; row < rows;) {
    const std::size_t b =
        static_cast<std::size_t>(std::min<std::uint64_t>(kSweepBlock, rows - row));
    block.clear();
    for (std::size_t j = 0; j < b; ++j)
      block.emplace_back(n, row + static_cast<std::uint64_t>(j));
    target_->eval_pm_batch(block, std::span<int>(target_out).first(b));
    hypothesis.eval_pm_batch(block, std::span<int>(hypothesis_out).first(b));
    for (std::size_t j = 0; j < b; ++j)
      if (target_out[j] != hypothesis_out[j]) return block[j];
    row += b;
  }
  return std::nullopt;
}

SampledEquivalenceOracle::SampledEquivalenceOracle(
    const BooleanFunction& target, double eps, double delta,
    support::Rng& rng)
    : target_(&target), eps_(eps), delta_(delta), rng_(&rng) {
  PITFALLS_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
  PITFALLS_REQUIRE(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
}

std::optional<BitVec> SampledEquivalenceOracle::counterexample(
    const BooleanFunction& hypothesis) {
  count_call();
  PITFALLS_REQUIRE(hypothesis.num_vars() == target_->num_vars(),
                   "hypothesis arity mismatch");
  auto& samples_counter =
      obs::MetricsRegistry::global().counter("oracle.equivalence_samples");
  const std::size_t n = target_->num_vars();
  // Angluin's schedule: q_i = ceil((ln(1/delta) + i ln 2) / eps) for the
  // i-th call (1-based) keeps the total failure probability below delta.
  const double i = static_cast<double>(calls());
  const std::size_t q = static_cast<std::size_t>(std::ceil(
      (std::log(1.0 / delta_) + i * std::log(2.0)) / eps_));
  // Deliberately scalar: the loop exits on the first disagreement, so a
  // batched version would pre-draw challenge bits from the caller's shared
  // rng and change every downstream draw. Byte-identity with the seed
  // outweighs the batch win here.
  for (std::size_t s = 0; s < q; ++s) {
    BitVec x(n);
    rng_->fill_coins(x);
    ++samples_used_;
    samples_counter.add(1);
    if (target_->eval_pm(x) != hypothesis.eval_pm(x)) return x;
  }
  return std::nullopt;
}

}  // namespace pitfalls::ml
