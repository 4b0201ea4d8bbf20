// Deterministic random number generation.
//
// Every stochastic component in the library (PUF instantiation, noise,
// challenge sampling, learner tie-breaking) draws from an explicitly seeded
// Rng so that experiments are reproducible bit-for-bit across runs and
// platforms. The engine is xoshiro256**, seeded through SplitMix64 as its
// authors recommend; we do not use std::mt19937 because its distribution
// implementations differ across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pitfalls::support {

class BitVec;

/// SplitMix64's output finalizer: a bijective 64-bit scramble. Seeds
/// derived through it (chunk streams, portfolio workers) are part of the
/// reproduced numbers, so its constants are frozen.
inline std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One SplitMix64 step: advance `state` by the golden-ratio increment and
/// return the finalized value.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return splitmix64_mix(state);
}

/// xoshiro256** engine with convenience draws used throughout the library.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Raw 64-bit draw (UniformRandomBitGenerator interface).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Unbiased integer in [0, bound). bound must be > 0.
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Standard normal draw (Marsaglia polar method, cached spare).
  double gaussian();

  /// Normal draw with given mean and standard deviation (sigma >= 0).
  double gaussian(double mean, double sigma);

  /// Fair coin.
  bool coin() { return (next() >> 63) != 0; }

  /// Overwrite every bit of `bits` with a fair coin, bit 0 first: exactly
  /// the draws of `for i: bits.set(i, coin())`, with each 64-bit word built
  /// in a register and stored once.
  void fill_coins(BitVec& bits);

  /// Biased coin: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// +1 or -1 with equal probability.
  int pm_one() { return coin() ? 1 : -1; }

  /// A fresh independent Rng derived from this one (for sub-components).
  Rng split();

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t next();

  std::array<std::uint64_t, 4> state_{};
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace pitfalls::support
