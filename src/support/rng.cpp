#include "support/rng.hpp"

#include <algorithm>
#include <cmath>

#include "support/bitvec.hpp"
#include "support/require.hpp"

namespace pitfalls::support {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64_next(s);
  has_spare_ = false;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Rng::fill_coins(BitVec& bits) {
  for (std::size_t w = 0; w < bits.num_words(); ++w) {
    const std::size_t width = std::min<std::size_t>(64, bits.size() - 64 * w);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < width; ++b) word |= (next() >> 63) << b;
    bits.set_word(w, word);
  }
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  PITFALLS_REQUIRE(bound > 0, "uniform_below needs a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PITFALLS_REQUIRE(lo <= hi, "uniform_int needs lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform01() {
  // 53 random bits -> [0, 1) with full double precision.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  PITFALLS_REQUIRE(lo <= hi, "uniform_real needs lo <= hi");
  return lo + (hi - lo) * uniform01();
}

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_gaussian_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::gaussian(double mean, double sigma) {
  PITFALLS_REQUIRE(sigma >= 0.0, "standard deviation must be non-negative");
  return mean + sigma * gaussian();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Rng Rng::split() {
  Rng child(0);
  child.state_ = {next(), next(), next(), next()};
  // A pathological all-zero state would make xoshiro degenerate.
  bool all_zero = true;
  for (auto word : child.state_)
    if (word != 0) all_zero = false;
  if (all_zero) child.state_[0] = 0x9e3779b97f4a7c15ULL;
  return child;
}

}  // namespace pitfalls::support
