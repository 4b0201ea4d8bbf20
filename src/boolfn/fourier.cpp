#include "boolfn/fourier.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "support/parallel.hpp"
#include "support/require.hpp"

namespace pitfalls::boolfn {

namespace {

// Rows at or above this size are worth fanning the WHT out over the pool;
// below it the butterflies fit in cache and task overhead would dominate.
constexpr std::uint64_t kParallelWhtRows = 1ULL << 14;

// In-place fast Walsh–Hadamard transform. After the transform,
// data[S] = sum_x f(x) * (-1)^{popcount(x & S)} = 2^n * fhat(S),
// because chi_S(x) = (-1)^{popcount(x & S)} under the chi encoding.
//
// Two radix-2 stages are fused into one radix-4 memory sweep: the fused
// butterfly writes (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d) —
// the exact associations the sequential stages produce, so results are
// bit-identical to the classic stage-by-stage kernel while touching memory
// half as often. Each butterfly group owns its four slots exclusively, so
// groups parallelize with no reduction-order concerns.
// One radix-4 pass over butterfly groups q in [begin, end): group q maps to
// block q/len, offset q%len, walked block-wise so the inner loop is pure
// pointer arithmetic (no division per butterfly). When Scaled, the pass is
// the transform's last and folds the 1/2^n normalization into its writes —
// (x)*scale is the same expression the standalone scaling loop evaluates,
// so fusion is bit-identical.
template <bool Scaled>
void radix4_sweep(double* data, std::uint64_t len, std::uint64_t begin,
                  std::uint64_t end, double scale) {
  std::uint64_t q = begin;
  std::uint64_t block = begin / len;
  std::uint64_t offset = begin % len;
  while (q < end) {
    const std::uint64_t run = std::min(end - q, len - offset);
    double* base = data + block * (len << 2) + offset;
    for (std::uint64_t k = 0; k < run; ++k) {
      double* p = base + k;
      const double a = p[0];
      const double b = p[len];
      const double c = p[2 * len];
      const double d = p[3 * len];
      const double ab_sum = a + b;
      const double ab_diff = a - b;
      const double cd_sum = c + d;
      const double cd_diff = c - d;
      if constexpr (Scaled) {
        p[0] = (ab_sum + cd_sum) * scale;
        p[len] = (ab_diff + cd_diff) * scale;
        p[2 * len] = (ab_sum - cd_sum) * scale;
        p[3 * len] = (ab_diff - cd_diff) * scale;
      } else {
        p[0] = ab_sum + cd_sum;
        p[len] = ab_diff + cd_diff;
        p[2 * len] = ab_sum - cd_sum;
        p[3 * len] = ab_diff - cd_diff;
      }
    }
    q += run;
    offset = 0;
    ++block;
  }
}

template <bool Scaled>
void radix2_sweep(double* data, std::uint64_t len, std::uint64_t begin,
                  std::uint64_t end, double scale) {
  for (std::uint64_t i = begin; i < end; ++i) {
    const double a = data[i];
    const double b = data[i + len];
    if constexpr (Scaled) {
      data[i] = (a + b) * scale;
      data[i + len] = (a - b) * scale;
    } else {
      data[i] = a + b;
      data[i + len] = a - b;
    }
  }
}

void walsh_hadamard(std::vector<double>& data, double final_scale = 1.0) {
  const std::uint64_t rows = data.size();
  const bool pooled = rows >= kParallelWhtRows;
  const bool fuse_scale = final_scale != 1.0;
  if (rows < 2) {
    if (fuse_scale)
      for (auto& value : data) value *= final_scale;
    return;
  }
  std::uint64_t len = 1;
  while (len * 2 < rows) {
    const bool final_pass = (len * 4 == rows);
    const auto sweep = [&data, len, final_pass, fuse_scale, final_scale](
                           std::size_t, std::size_t begin, std::size_t end) {
      if (final_pass && fuse_scale)
        radix4_sweep<true>(data.data(), len, begin, end, final_scale);
      else
        radix4_sweep<false>(data.data(), len, begin, end, 0.0);
    };
    if (pooled) {
      support::parallel_for_chunks(rows / 4, sweep, "boolfn.wht");
    } else {
      sweep(0, 0, rows / 4);
    }
    len <<= 2;
  }
  if (len < rows) {
    // Odd number of stages: one trailing radix-2 stage (len == rows / 2).
    const auto sweep = [&data, len, fuse_scale, final_scale](
                           std::size_t, std::size_t begin, std::size_t end) {
      if (fuse_scale)
        radix2_sweep<true>(data.data(), len, begin, end, final_scale);
      else
        radix2_sweep<false>(data.data(), len, begin, end, 0.0);
    };
    if (pooled) {
      support::parallel_for_chunks(len, sweep, "boolfn.wht");
    } else {
      sweep(0, 0, len);
    }
  }
}

}  // namespace

FourierSpectrum FourierSpectrum::of(const TruthTable& table) {
  const std::size_t n = table.num_vars();
  const std::uint64_t rows = table.num_rows();
  std::vector<double> data(rows);
  for (std::uint64_t row = 0; row < rows; ++row)
    data[row] = static_cast<double>(table.at(row));

  // The 1/2^n normalization is fused into the transform's final stage; each
  // output is still (butterfly result) * scale, so this is bit-identical to
  // a separate scaling pass.
  walsh_hadamard(data, 1.0 / static_cast<double>(rows));
  return FourierSpectrum(n, std::move(data));
}

double FourierSpectrum::coefficient(std::uint64_t subset_mask) const {
  PITFALLS_REQUIRE(subset_mask < coeffs_.size(), "subset mask out of range");
  return coeffs_[subset_mask];
}

double FourierSpectrum::weight_at_degree(std::size_t d) const {
  double total = 0.0;
  for (std::uint64_t mask = 0; mask < coeffs_.size(); ++mask)
    if (static_cast<std::size_t>(std::popcount(mask)) == d)
      total += coeffs_[mask] * coeffs_[mask];
  return total;
}

double FourierSpectrum::weight_up_to_degree(std::size_t d) const {
  double total = 0.0;
  for (std::uint64_t mask = 0; mask < coeffs_.size(); ++mask)
    if (static_cast<std::size_t>(std::popcount(mask)) <= d)
      total += coeffs_[mask] * coeffs_[mask];
  return total;
}

double FourierSpectrum::total_weight() const {
  double total = 0.0;
  for (auto c : coeffs_) total += c * c;
  return total;
}

double FourierSpectrum::noise_sensitivity(double eps) const {
  PITFALLS_REQUIRE(eps >= 0.0 && eps <= 1.0, "eps must be in [0,1]");
  const double rho = 1.0 - 2.0 * eps;
  // rho^d for every possible degree, hoisted out of the 2^n-mask loop
  // (std::pow, not repeated multiplication, so the per-mask values match
  // the naive evaluation bit-for-bit).
  std::vector<double> rho_pow(n_ + 1);
  for (std::size_t d = 0; d <= n_; ++d)
    rho_pow[d] = std::pow(rho, static_cast<double>(d));
  double stability = 0.0;
  for (std::uint64_t mask = 0; mask < coeffs_.size(); ++mask)
    stability += rho_pow[static_cast<std::size_t>(std::popcount(mask))] *
                 coeffs_[mask] * coeffs_[mask];
  return 0.5 - 0.5 * stability;
}

TruthTable FourierSpectrum::truncated_sign(std::size_t d) const {
  // Zero out coefficients above degree d and invert the WHT.
  std::vector<double> data = coeffs_;
  for (std::uint64_t mask = 0; mask < data.size(); ++mask)
    if (static_cast<std::size_t>(std::popcount(mask)) > d) data[mask] = 0.0;

  walsh_hadamard(data);
  // The forward transform already divided by 2^n, and the WHT matrix is its
  // own inverse up to that factor, so `data` now holds the truncation values.
  const std::uint64_t rows = data.size();
  TruthTable out(n_);
  for (std::uint64_t row = 0; row < rows; ++row)
    out.set(row, data[row] < 0.0 ? -1 : +1);
  return out;
}

namespace {

BitVec uniform_input(std::size_t n, support::Rng& rng) {
  BitVec x(n);
  rng.fill_coins(x);
  return x;
}

// Bit-sliced parity cache for the sampled estimators: plane v packs bit v of
// every challenge (bit s of word s/64 is challenge s), `resp` packs the sign
// bit of every response. chi_S(x_s) * y_s is then -1 exactly where
// (XOR of planes in S) ^ resp has bit s set, so one subset's estimate is a
// popcount over |S| XORed planes instead of m masked_parity calls — the sum
// is exact integer arithmetic, identical to the naive per-sample loop.
struct ParityCache {
  std::size_t samples = 0;
  std::size_t num_vars = 0;
  std::size_t words = 0;
  std::vector<std::uint64_t> planes;  // num_vars * words, plane-major
  std::vector<std::uint64_t> resp;    // words

  ParityCache(const std::vector<BitVec>& challenges,
              const std::vector<int>& responses)
      : samples(challenges.size()),
        num_vars(challenges.front().size()),
        words((challenges.size() + 63) / 64),
        planes(num_vars * words, 0),
        resp(words, 0) {
    for (std::size_t s = 0; s < samples; ++s) {
      const std::uint64_t bit = 1ULL << (s % 64);
      const std::size_t word = s / 64;
      const BitVec& c = challenges[s];
      for (std::size_t v = 0; v < num_vars; ++v)
        if (c.get(v)) planes[v * words + word] |= bit;
      if (responses[s] < 0) resp[word] |= bit;
    }
  }

  /// sum_s y_s * chi_S(x_s) for the subset with the given variable indices.
  std::int64_t signed_sum(const std::vector<std::size_t>& subset_vars,
                          std::vector<std::uint64_t>& scratch) const {
    scratch.assign(resp.begin(), resp.end());
    for (const std::size_t v : subset_vars) {
      const std::uint64_t* plane = planes.data() + v * words;
      for (std::size_t w = 0; w < words; ++w) scratch[w] ^= plane[w];
    }
    // Padding bits past `samples` are zero in every plane and in resp, so
    // they never contribute to the disagreement count.
    std::int64_t disagreements = 0;
    for (std::size_t w = 0; w < words; ++w)
      disagreements += std::popcount(scratch[w]);
    return static_cast<std::int64_t>(samples) - 2 * disagreements;
  }
};

}  // namespace

double estimate_coefficient(const BooleanFunction& f, const BitVec& subset,
                            std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one sample");
  PITFALLS_REQUIRE(subset.size() == f.num_vars(), "subset arity mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const BitVec x = uniform_input(f.num_vars(), rng);
    const int chi = x.masked_parity(subset) ? -1 : +1;
    sum += static_cast<double>(f.eval_pm(x) * chi);
  }
  return sum / static_cast<double>(m);
}

std::vector<double> estimate_coefficients(
    const BooleanFunction& f, const std::vector<BitVec>& subsets,
    std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one sample");
  // One shared sample, generated per-chunk: chunk c draws from its own
  // stream derived from (seed, c), so the sample — and everything computed
  // from it — is identical for every thread count. The caller's rng
  // advances by exactly one draw.
  const std::uint64_t seed = rng();
  const std::size_t n = f.num_vars();
  std::vector<BitVec> challenges(m);
  std::vector<int> responses(m);
  support::parallel_for_chunks(
      m,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // One batch per chunk; eval_pm draws nothing, so batching after
        // generation is byte-identical to the old interleaved loop.
        for (std::size_t i = begin; i < end; ++i)
          challenges[i] = uniform_input(n, chunk_rng);
        f.eval_pm_batch(
            std::span<const BitVec>(challenges.data() + begin, end - begin),
            std::span<int>(responses.data() + begin, end - begin));
      },
      "boolfn.estimate.sample");
  return estimate_coefficients_from_data(challenges, responses, subsets);
}

std::vector<double> estimate_coefficients_from_data(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const std::vector<BitVec>& subsets) {
  PITFALLS_REQUIRE(!challenges.empty(), "empty CRP set");
  PITFALLS_REQUIRE(challenges.size() == responses.size(),
                   "challenge/response size mismatch");
  const ParityCache cache(challenges, responses);
  const double m = static_cast<double>(challenges.size());
  std::vector<double> out(subsets.size(), 0.0);
  support::parallel_for_chunks(
      subsets.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> scratch(cache.words);
        for (std::size_t s = begin; s < end; ++s) {
          PITFALLS_REQUIRE(subsets[s].size() == cache.num_vars,
                           "subset arity mismatch");
          out[s] =
              static_cast<double>(cache.signed_sum(subsets[s].set_bits(),
                                                   scratch)) /
              m;
        }
      },
      "boolfn.estimate");
  return out;
}

double estimate_noise_sensitivity(const BooleanFunction& f, double eps,
                                  std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one sample");
  PITFALLS_REQUIRE(eps >= 0.0 && eps <= 1.0, "eps must be in [0,1]");
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const BitVec x = uniform_input(f.num_vars(), rng);
    BitVec y = x;
    for (std::size_t bit = 0; bit < y.size(); ++bit)
      if (rng.bernoulli(eps)) y.flip(bit);
    if (f.eval_pm(x) != f.eval_pm(y)) ++disagreements;
  }
  return static_cast<double>(disagreements) / static_cast<double>(m);
}

double estimate_bias(const BooleanFunction& f, std::size_t m,
                     support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one sample");
  double sum = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    sum += static_cast<double>(f.eval_pm(uniform_input(f.num_vars(), rng)));
  return sum / static_cast<double>(m);
}

}  // namespace pitfalls::boolfn
