// portable_tanh: one 4-lane body, compiled for the baseline ISA and as an
// AVX2 clone behind the dispatch the training kernels in logistic.cpp use.
// Lanes are GCC/Clang vector-extension types rather than a scalar loop left
// to the auto-vectoriser: under the default -ftrapping-math GCC does not
// if-convert the branch-free select below ("control flow in loop") and
// keeps such a loop scalar. Every lane operation is one IEEE operation and
// no build fuses a multiply and an add (-ffp-contract=off; the AVX2 clone
// does not enable FMA), so both compilations give the same bits for every
// input.
#include "ml/portable_tanh.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "support/require.hpp"

namespace pitfalls::ml {

namespace {

using Lanes = double __attribute__((vector_size(32)));
using Bits = std::uint64_t __attribute__((vector_size(32)));
constexpr std::size_t kWidth = 4;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Below this |x| the odd rational runs, from it on 1 - 2 / (exp(2|x|) + 1)
/// (Cephes' split).
constexpr double kRationalLimit = 0.625;
// Cephes tanh on [0, 0.625]: tanh(a) = a + a * (z * P(z) / Q(z)), z = a * a,
// P of degree 2, Q monic of degree 3.
constexpr double kP0 = -9.64399179425052238628e-1;
constexpr double kP1 = -9.92877231001918586564e1;
constexpr double kP2 = -1.61468768441708447952e3;
constexpr double kQ0 = 1.12811678491632931402e2;
constexpr double kQ1 = 2.23548839060100448583e3;
constexpr double kQ2 = 4.84406305325125486048e3;

/// exp's argument is capped here. At 2|x| >= 38.2, 2 / (exp(2|x|) + 1) is
/// below half an ulp of 1 and the result rounds to 1, so the cap changes no
/// result; it keeps inf and NaN lanes out of the exponent arithmetic.
constexpr double kExpCap = 40.0;
// exp(y) = 2^n * exp(r): n = round(y / ln 2) by adding 1.5 * 2^52, which
// leaves n in the low mantissa bits; r = y - n ln 2 with ln 2 split so that
// n * kLn2Hi is exact (Cody-Waite); exp(r) by its degree-12 Taylor
// polynomial on |r| <= ln(2) / 2.
constexpr double kRoundShift = 0x1.8p52;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvFactorial[13] = {
    1.0,           1.0,           1.0 / 2,         1.0 / 6,
    1.0 / 24,      1.0 / 120,     1.0 / 720,       1.0 / 5040,
    1.0 / 40320,   1.0 / 362880,  1.0 / 3628800,   1.0 / 39916800,
    1.0 / 479001600};
constexpr std::uint64_t kExponentBias = 1023;
constexpr int kMantissaBits = 52;

/// out[0..3] = tanh(in[0..3]). All of `in` is read before `out` is written,
/// so the two may be the same block.
[[gnu::always_inline]] inline void tanh_lanes(const double* in, double* out) {
  Lanes x{};
  std::memcpy(&x, in, sizeof x);
  const Bits sign = __builtin_bit_cast(Bits, x) & kSignBit;
  const Lanes a =
      __builtin_bit_cast(Lanes, __builtin_bit_cast(Bits, x) ^ sign);

  const Lanes z = a * a;
  const Lanes p = (kP0 * z + kP1) * z + kP2;
  const Lanes q = ((z + kQ0) * z + kQ1) * z + kQ2;
  const Lanes rational = a + a * (z * p / q);

  const Lanes twice = a + a;
  const Bits below_cap = __builtin_bit_cast(Bits, twice < kExpCap);
  const Lanes y = __builtin_bit_cast(
      Lanes, (below_cap & __builtin_bit_cast(Bits, twice)) |
                 (~below_cap & __builtin_bit_cast(std::uint64_t, kExpCap)));
  const Lanes shifted = y * kInvLn2 + kRoundShift;
  const Lanes n = shifted - kRoundShift;
  const Lanes r = (y - n * kLn2Hi) - n * kLn2Lo;
  Lanes poly = r * kInvFactorial[12] + kInvFactorial[11];
  for (std::size_t i = 11; i-- > 0;) poly = poly * r + kInvFactorial[i];
  // n is in [0, 58], so n + bias fits the exponent field: 2^n exactly.
  const Lanes scale = __builtin_bit_cast(
      Lanes,
      (__builtin_bit_cast(Bits, shifted) + kExponentBias) << kMantissaBits);
  const Lanes saturating = 1.0 - 2.0 / (poly * scale + 1.0);

  const Bits use_rational = __builtin_bit_cast(Bits, a < kRationalLimit);
  const Bits magnitude =
      (use_rational & __builtin_bit_cast(Bits, rational)) |
      (~use_rational & __builtin_bit_cast(Bits, saturating));
  const Bits is_nan = __builtin_bit_cast(Bits, x != x);
  const Bits result = (is_nan & __builtin_bit_cast(Bits, x)) |
                      (~is_nan & ((magnitude & ~kSignBit) | sign));
  std::memcpy(out, &result, sizeof result);
}

[[gnu::always_inline]] inline void tanh_blocks(const double* in, double* out,
                                               std::size_t count) {
  std::size_t i = 0;
  for (; i + kWidth <= count; i += kWidth) tanh_lanes(in + i, out + i);
  if (i == count) return;
  double tail[kWidth] = {};
  std::copy(in + i, in + count, tail);
  tanh_lanes(tail, tail);
  std::copy(tail, tail + (count - i), out + i);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PITFALLS_HAVE_AVX2_KERNEL 1
__attribute__((target("avx2"))) void tanh_blocks_avx2(const double* in,
                                                      double* out,
                                                      std::size_t count) {
  tanh_blocks(in, out, count);
}

bool has_avx2() {
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2") != 0;
  return kHasAvx2;
}
#endif

}  // namespace

double portable_tanh(double x) {
  double lanes[kWidth] = {x};
  tanh_lanes(lanes, lanes);
  return lanes[0];
}

void portable_tanh(std::span<const double> in, std::span<double> out) {
  PITFALLS_REQUIRE(in.size() == out.size(),
                   "portable_tanh: input and output sizes differ");
#if defined(PITFALLS_HAVE_AVX2_KERNEL)
  if (has_avx2()) {
    tanh_blocks_avx2(in.data(), out.data(), in.size());
    return;
  }
#endif
  tanh_blocks(in.data(), out.data(), in.size());
}

}  // namespace pitfalls::ml
