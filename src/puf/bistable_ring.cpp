#include "puf/bistable_ring.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "puf/bitslice_detail.hpp"
#include "support/require.hpp"

namespace pitfalls::puf {

BistableRingConfig BistableRingConfig::paper_instance(std::size_t bits) {
  BistableRingConfig cfg;
  cfg.bits = bits;
  // Calibrated so that the best-LTF accuracy plateaus in the low 90s
  // (Table II) while the halfspace tester's distance estimate grows with n
  // (Table III): larger rings couple more stages, so the interaction share
  // rises with n.
  // Interaction share AND attribute noise both grow with the ring size:
  // more stages couple more neighbours and accumulate more jitter. The
  // noise drives the stable-CRP filter of Table II (larger rings keep only
  // higher-margin challenges, raising conditional accuracy with n, as in
  // the paper), while Table III's unfiltered CRPs see the raw interaction
  // share (distance rising with n).
  if (bits <= 16) {
    cfg.nonlinear_share = 0.20;
    cfg.noise_sigma = 0.15;
  } else if (bits <= 32) {
    cfg.nonlinear_share = 0.40;
    cfg.noise_sigma = 0.7;
  } else {
    cfg.nonlinear_share = 0.50;
    cfg.noise_sigma = 1.4;
  }
  return cfg;
}

BistableRingPuf::BistableRingPuf(const BistableRingConfig& config,
                                 support::Rng& rng)
    : config_(config), linear_(config.bits) {
  // The interaction terms below are 2n distinct pairs and n distinct
  // triples, drawn by rejection: C(n,2) >= 2n and C(n,3) >= n first hold
  // together at n = 5 (at n = 4 only six pairs exist and the draw would
  // never finish).
  PITFALLS_REQUIRE(config.bits >= 5, "a BR PUF needs at least 5 stages");
  PITFALLS_REQUIRE(config.nonlinear_share >= 0.0 &&
                       config.nonlinear_share < 1.0,
                   "nonlinear share must be in [0,1)");
  PITFALLS_REQUIRE(config.noise_sigma >= 0.0, "noise sigma must be >= 0");

  for (auto& w : linear_) w = rng.gaussian();

  // Sample distinct interaction supports (degree 2 then degree 3).
  const std::size_t n = config.bits;
  std::set<std::vector<std::size_t>> seen;
  auto sample_support = [&](std::size_t degree) {
    std::vector<std::size_t> vars;
    do {
      std::set<std::size_t> picked;
      while (picked.size() < degree)
        picked.insert(static_cast<std::size_t>(rng.uniform_below(n)));
      vars.assign(picked.begin(), picked.end());
    } while (!seen.insert(vars).second);
    return vars;
  };
  for (std::size_t t = 0; t < 2 * n; ++t)
    interactions_.push_back({sample_support(2), rng.gaussian()});
  for (std::size_t t = 0; t < n; ++t)
    interactions_.push_back({sample_support(3), rng.gaussian()});

  // Normalise the variance split: with x_i = +/-1 uniform, each term w * m(x)
  // contributes variance w^2, so the shares are set by rescaling each group.
  double linear_var = 0.0;
  for (auto w : linear_) linear_var += w * w;
  double inter_var = 0.0;
  for (const auto& term : interactions_) inter_var += term.weight * term.weight;
  PITFALLS_ENSURE(linear_var > 0.0 && inter_var > 0.0,
                  "degenerate weight draw");

  const double lambda = config_.nonlinear_share;
  const double linear_scale = std::sqrt((1.0 - lambda) / linear_var);
  const double inter_scale = std::sqrt(lambda / inter_var);
  for (auto& w : linear_) w *= linear_scale;
  for (auto& term : interactions_) term.weight *= inter_scale;
}

double BistableRingPuf::margin(const BitVec& challenge) const {
  PITFALLS_REQUIRE(challenge.size() == config_.bits,
                   "challenge arity mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < linear_.size(); ++i)
    sum += linear_[i] * static_cast<double>(challenge.pm_one(i));
  for (const auto& term : interactions_) {
    int prod = 1;
    for (auto v : term.vars) prod *= challenge.pm_one(v);
    sum += term.weight * static_cast<double>(prod);
  }
  return sum;
}

void BistableRingPuf::margins(std::span<const BitVec> challenges,
                              std::span<double> out) const {
  PITFALLS_REQUIRE(challenges.size() == out.size(),
                   "batch spans must have equal length");
  std::vector<std::uint64_t> planes(config_.bits);
  for (std::size_t base = 0; base < challenges.size();
       base += detail::kBatchBlock) {
    const std::size_t block =
        std::min(detail::kBatchBlock, challenges.size() - base);
    for (std::size_t s = 0; s < block; ++s)
      PITFALLS_REQUIRE(challenges[base + s].size() == config_.bits,
                       "challenge arity mismatch");
    detail::challenge_bit_planes(challenges, base, block, planes);
    std::array<double, detail::kBatchBlock> sums{};
    for (std::size_t i = 0; i < linear_.size(); ++i) {
      const std::uint64_t neg = planes[i];
      const double w = linear_[i];
      for (std::size_t s = 0; s < block; ++s)
        sums[s] += detail::flip_sign_if(w, (neg >> s) & 1);
    }
    for (const auto& term : interactions_) {
      // Bit s of neg is the parity of challenge s over the term's support,
      // i.e. whether the +/-1 product of the selected bits is -1.
      std::uint64_t neg = 0;
      for (auto v : term.vars) neg ^= planes[v];
      const double w = term.weight;
      for (std::size_t s = 0; s < block; ++s)
        sums[s] += detail::flip_sign_if(w, (neg >> s) & 1);
    }
    for (std::size_t s = 0; s < block; ++s) out[base + s] = sums[s];
  }
}

void BistableRingPuf::eval_pm_batch(std::span<const BitVec> challenges,
                                    std::span<int> out) const {
  PITFALLS_REQUIRE(challenges.size() == out.size(),
                   "batch spans must have equal length");
  std::vector<double> m(challenges.size());
  margins(challenges, m);
  for (std::size_t i = 0; i < m.size(); ++i) out[i] = m[i] < 0.0 ? -1 : +1;
}

void BistableRingPuf::eval_noisy_batch(std::span<const BitVec> challenges,
                                       std::span<int> out,
                                       support::Rng& rng) const {
  PITFALLS_REQUIRE(challenges.size() == out.size(),
                   "batch spans must have equal length");
  std::vector<double> m(challenges.size());
  margins(challenges, m);
  for (std::size_t i = 0; i < m.size(); ++i)
    out[i] = m[i] + rng.gaussian(0.0, config_.noise_sigma) < 0.0 ? -1 : +1;
}

int BistableRingPuf::eval_pm(const BitVec& challenge) const {
  return margin(challenge) < 0.0 ? -1 : +1;
}

int BistableRingPuf::eval_noisy(const BitVec& challenge,
                                support::Rng& rng) const {
  const double noisy = margin(challenge) + rng.gaussian(0.0, config_.noise_sigma);
  return noisy < 0.0 ? -1 : +1;
}

std::string BistableRingPuf::describe() const {
  std::ostringstream os;
  os << config_.bits << "-bit bistable ring PUF (nonlinear share "
     << config_.nonlinear_share << ")";
  return os.str();
}

}  // namespace pitfalls::puf
