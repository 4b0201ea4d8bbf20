// Microbenchmarks for the computational kernels that dominate the table
// reproductions, reported through the shared BenchReporter harness
// (--smoke/--json) like every other bench.
//
// Each row times the *seed* implementation (the pre-parallel-layer loop,
// kept here as the baseline) against the optimized kernel shipped in the
// library — radix-4 + pooled WHT, the bit-sliced parity-cache coefficient
// estimator, the rho^d-table noise sensitivity, chunk-parallel CRP
// collection, the fanned-out accuracy pass, the vectorised XOR-model fit
// and the word-at-a-time coin fill — and prints wall-clock for both plus
// the speedup. Where the optimization is contractually bit-identical (WHT,
// estimation, noise sensitivity, XOR-model fit, coin fill) the bench also
// verifies the outputs match, and exits 1 when any of them do not.
//
// The timings and the pool's thread count go to stdout only: they differ
// run to run and host to host. The recorded table holds just
// `kernel | param | outputs match`, which bench_smoke requires to equal
// the committed baseline. Speed claims come from perfbench.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "boolfn/fourier.hpp"
#include "boolfn/truth_table.hpp"
#include "ml/features.hpp"
#include "ml/xor_model.hpp"
#include "obs/bench_reporter.hpp"
#include "puf/arbiter.hpp"
#include "puf/crp.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/combinatorics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using support::BitVec;
using support::Rng;
using support::Table;

// Kernel timing harness: the measured seconds are the bench's OUTPUT (a
// speedup table), never an input to any computation, so the wall-clock
// reads are annotated as audited exceptions.
template <typename Fn>
double best_seconds(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();  // lint:wallclock-ok
    fn();
    const double elapsed =
        std::chrono::duration<double>(  // lint:wallclock-ok
            std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, elapsed);
  }
  return best;
}

// ---- seed implementations, kept verbatim as baselines ----

std::vector<double> legacy_wht(const boolfn::TruthTable& table) {
  const std::uint64_t rows = table.num_rows();
  std::vector<double> data(rows);
  for (std::uint64_t row = 0; row < rows; ++row)
    data[row] = static_cast<double>(table.at(row));
  for (std::uint64_t len = 1; len < rows; len <<= 1)
    for (std::uint64_t block = 0; block < rows; block += len << 1)
      for (std::uint64_t i = block; i < block + len; ++i) {
        const double a = data[i];
        const double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
  const double scale = 1.0 / static_cast<double>(rows);
  for (auto& value : data) value *= scale;
  return data;
}

std::vector<double> legacy_estimate_from_data(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const std::vector<BitVec>& subsets) {
  std::vector<double> out(subsets.size(), 0.0);
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    double sum = 0.0;
    for (std::size_t i = 0; i < challenges.size(); ++i) {
      const int chi = challenges[i].masked_parity(subsets[s]) ? -1 : +1;
      sum += static_cast<double>(responses[i] * chi);
    }
    out[s] = sum / static_cast<double>(challenges.size());
  }
  return out;
}

double legacy_noise_sensitivity(const std::vector<double>& coeffs,
                                double eps) {
  const double rho = 1.0 - 2.0 * eps;
  double stability = 0.0;
  for (std::uint64_t mask = 0; mask < coeffs.size(); ++mask) {
    const int degree = std::popcount(mask);
    stability += std::pow(rho, degree) * coeffs[mask] * coeffs[mask];
  }
  return 0.5 - 0.5 * stability;
}

puf::CrpSet legacy_collect_uniform(const puf::Puf& puf, std::size_t m,
                                   Rng& rng) {
  puf::CrpSet set;
  for (std::size_t i = 0; i < m; ++i) {
    BitVec c(puf.num_vars());
    for (std::size_t b = 0; b < c.size(); ++b) c.set(b, rng.coin());
    const int r = puf.eval_pm(c);
    set.add(std::move(c), r);
  }
  return set;
}

double legacy_accuracy(const puf::CrpSet& set,
                       const boolfn::BooleanFunction& f) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < set.size(); ++i)
    if (f.eval_pm(set.challenge(i)) == set.response(i)) ++agree;
  return static_cast<double>(agree) / static_cast<double>(set.size());
}

// XorModelConfig as the seed loop reads it: the RProp step sizes it had as
// fields, at the values the library now fixes.
struct LegacyXorConfig : ml::XorModelConfig {
  double init_step = 0.02;
  double step_up = 1.2;
  double step_down = 0.5;
  double min_step = 1e-7;
  double max_step = 2.0;
};

std::vector<std::vector<double>> legacy_xor_fit(
    const LegacyXorConfig& config_, const std::vector<BitVec>& challenges,
    const std::vector<int>& responses, const ml::FeatureMap& features,
    Rng& rng, ml::XorModelResult* stats) {
  const std::size_t m = challenges.size();
  std::vector<std::vector<double>> X;
  X.reserve(m);
  for (const auto& c : challenges) X.push_back(features(c));
  const std::size_t dim = X.front().size();
  const std::size_t k = config_.chains;

  auto accuracy_of = [&](const std::vector<std::vector<double>>& w) {
    std::size_t agree = 0;
    for (std::size_t s = 0; s < m; ++s) {
      int product = 1;
      for (const auto& chain : w) {
        double score = 0.0;
        for (std::size_t i = 0; i < dim; ++i) score += chain[i] * X[s][i];
        product *= score < 0.0 ? -1 : +1;
      }
      if (product == responses[s]) ++agree;
    }
    return static_cast<double>(agree) / static_cast<double>(m);
  };

  std::vector<std::vector<double>> best_weights;
  double best_accuracy = -1.0;
  std::size_t best_iterations = 0;
  std::size_t restarts_used = 0;

  for (std::size_t restart = 0; restart < config_.restarts; ++restart) {
    ++restarts_used;
    // Fresh random initialisation.
    std::vector<std::vector<double>> w(k, std::vector<double>(dim));
    for (auto& chain : w)
      for (auto& weight : chain)
        weight = config_.init_scale * rng.gaussian();
    std::vector<std::vector<double>> step(
        k, std::vector<double>(dim, config_.init_step));
    std::vector<std::vector<double>> prev_grad(k,
                                               std::vector<double>(dim, 0.0));

    std::size_t iter = 0;
    for (; iter < config_.max_iters; ++iter) {
      // Batch gradient of NLL = -sum log((1 + y*yhat)/2) with
      // yhat = prod_j tanh(s_j), s_j = w_j . x.
      std::vector<std::vector<double>> grad(k, std::vector<double>(dim, 0.0));
      for (std::size_t s = 0; s < m; ++s) {
        std::vector<double> t(k);
        double yhat = 1.0;
        for (std::size_t j = 0; j < k; ++j) {
          double score = 0.0;
          for (std::size_t i = 0; i < dim; ++i) score += w[j][i] * X[s][i];
          t[j] = std::tanh(score);
          yhat *= t[j];
        }
        const double y = static_cast<double>(responses[s]);
        const double denom = 1.0 + y * yhat;
        if (denom < 1e-9) continue;  // saturated wrong example: skip
        const double coeff = -y / denom / static_cast<double>(m);
        for (std::size_t j = 0; j < k; ++j) {
          // d yhat / d s_j = (1 - t_j^2) * prod_{l != j} t_l
          double others = 1.0;
          for (std::size_t l = 0; l < k; ++l)
            if (l != j) others *= t[l];
          const double factor = coeff * (1.0 - t[j] * t[j]) * others;
          for (std::size_t i = 0; i < dim; ++i)
            grad[j][i] += factor * X[s][i];
        }
      }

      // RProp update.
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < dim; ++i) {
          const double sign_product = grad[j][i] * prev_grad[j][i];
          if (sign_product > 0.0)
            step[j][i] = std::min(step[j][i] * config_.step_up,
                                  config_.max_step);
          else if (sign_product < 0.0)
            step[j][i] = std::max(step[j][i] * config_.step_down,
                                  config_.min_step);
          if (grad[j][i] > 0.0)
            w[j][i] -= step[j][i];
          else if (grad[j][i] < 0.0)
            w[j][i] += step[j][i];
          prev_grad[j][i] = grad[j][i];
        }
      }

      if ((iter & 15u) == 0 &&
          accuracy_of(w) >= config_.target_train_accuracy)
        break;
    }

    const double acc = accuracy_of(w);
    if (acc > best_accuracy) {
      best_accuracy = acc;
      best_weights = w;
      best_iterations = iter;
    }
    if (best_accuracy >= config_.target_train_accuracy) break;
  }

  if (stats != nullptr) {
    stats->iterations = best_iterations;
    stats->restarts_used = restarts_used;
    stats->train_accuracy = best_accuracy;
  }
  return best_weights;
}

struct KernelRow {
  std::string kernel;
  std::string param;
  double baseline_seconds;
  double optimized_seconds;
  bool verified;  // outputs compared and equal (or no comparison applies)
};

void add_row(Table& timings, Table& verdicts, const KernelRow& row) {
  const double speedup = row.optimized_seconds > 0.0
                             ? row.baseline_seconds / row.optimized_seconds
                             : 0.0;
  timings.add_row({row.kernel, row.param,
                   Table::fmt(1e3 * row.baseline_seconds, 3),
                   Table::fmt(1e3 * row.optimized_seconds, 3),
                   Table::fmt(speedup, 2)});
  verdicts.add_row({row.kernel, row.param, row.verified ? "yes" : "NO"});
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("micro_kernels", argc, argv);
  const bool smoke = reporter.smoke();
  const std::size_t reps = smoke ? 2 : 5;

  std::cout << "== Micro-kernels: seed baseline vs optimized/parallel ==\n\n";

  Table timings(
      {"kernel", "param", "baseline [ms]", "optimized [ms]", "speedup"});
  Table verdicts({"kernel", "param", "outputs match"});

  // WHT: radix-4 fused butterflies + pooled sweeps vs the seed's radix-2
  // stage-by-stage kernel. Bit-identical by construction.
  const std::vector<std::size_t> wht_ns =
      smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, 18, 20};
  for (const std::size_t n : wht_ns) {
    Rng rng(1);
    boolfn::TruthTable tt(n);
    for (std::uint64_t row = 0; row < tt.num_rows(); ++row)
      tt.set(row, rng.coin() ? 1 : -1);
    std::vector<double> legacy;
    const double base =
        best_seconds(reps, [&] { legacy = legacy_wht(tt); });
    std::vector<double> optimized;
    const double opt = best_seconds(reps, [&] {
      optimized = boolfn::FourierSpectrum::of(tt).coefficients();
    });
    add_row(timings, verdicts,
            {"wht", "n=" + std::to_string(n), base, opt, legacy == optimized});
  }

  // Coefficient estimation from a fixed CRP set: bit-sliced parity cache +
  // parallel subsets vs the seed's per-(subset, sample) masked_parity loop.
  {
    const std::size_t n = smoke ? 12 : 20;
    const std::size_t m = smoke ? 2000 : 20000;
    Rng rng(9);
    const puf::XorArbiterPuf puf =
        puf::XorArbiterPuf::independent(n, 2, 0.0, rng);
    const puf::CrpSet crps = puf::CrpSet::collect_uniform(puf, m, rng);
    std::vector<BitVec> subsets;
    for (const auto& s : support::subsets_up_to_size(n, 2))
      subsets.push_back(support::subset_mask(n, s));
    std::vector<double> legacy;
    const double base = best_seconds(reps, [&] {
      legacy = legacy_estimate_from_data(crps.challenges(), crps.responses(),
                                         subsets);
    });
    std::vector<double> optimized;
    const double opt = best_seconds(reps, [&] {
      optimized = boolfn::estimate_coefficients_from_data(
          crps.challenges(), crps.responses(), subsets);
    });
    add_row(timings, verdicts,
            {"estimate_coeffs",
             "n=" + std::to_string(n) + ",m=" + std::to_string(m) + ",|S|=" +
                 std::to_string(subsets.size()),
             base, opt, legacy == optimized});
  }

  // Exact noise sensitivity: rho^d lookup table vs std::pow per mask.
  {
    const std::size_t n = smoke ? 10 : 16;
    Rng rng(11);
    boolfn::TruthTable tt(n);
    for (std::uint64_t row = 0; row < tt.num_rows(); ++row)
      tt.set(row, rng.coin() ? 1 : -1);
    const auto spectrum = boolfn::FourierSpectrum::of(tt);
    double legacy = 0.0;
    const double base = best_seconds(reps, [&] {
      legacy = legacy_noise_sensitivity(spectrum.coefficients(), 0.05);
    });
    double optimized = 0.0;
    const double opt =
        best_seconds(reps, [&] { optimized = spectrum.noise_sensitivity(0.05); });
    add_row(timings, verdicts,
            {"noise_sensitivity", "n=" + std::to_string(n), base, opt,
             legacy == optimized});
  }

  // CRP collection: chunk-parallel deterministic streams vs the seed's
  // single-stream loop. Streams differ by design, so no output comparison —
  // the byte-identity across thread counts is asserted in
  // tests/parallel_test.cpp instead.
  {
    const std::size_t m = smoke ? 5000 : 100000;
    Rng rng(2);
    const puf::XorArbiterPuf puf =
        puf::XorArbiterPuf::independent(64, 4, 0.0, rng);
    const double base = best_seconds(reps, [&] {
      Rng collect(3);
      const auto set = legacy_collect_uniform(puf, m, collect);
      if (set.size() != m) std::abort();
    });
    const double opt = best_seconds(reps, [&] {
      Rng collect(3);
      const auto set = puf::CrpSet::collect_uniform(puf, m, collect);
      if (set.size() != m) std::abort();
    });
    add_row(timings, verdicts,
            {"collect_uniform", "n=64,k=4,m=" + std::to_string(m), base, opt,
             true});
  }

  // Batched PUF evaluation: the bit-sliced eval_pm_batch kernel vs the
  // per-element scalar loop, single batch (no parallel layer) so the row
  // isolates the batch plane itself. Contractually bit-identical.
  {
    const std::size_t m = smoke ? 5000 : 100000;
    Rng rng(6);
    const puf::ArbiterPuf puf(64, 0.0, rng);
    Rng gen(7);
    std::vector<BitVec> challenges;
    challenges.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      BitVec c(64);
      for (std::size_t b = 0; b < c.size(); ++b) c.set(b, gen.coin());
      challenges.push_back(std::move(c));
    }
    std::vector<int> scalar(m), batch(m);
    const double base = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < m; ++i) scalar[i] = puf.eval_pm(challenges[i]);
    });
    const double opt =
        best_seconds(reps, [&] { puf.eval_pm_batch(challenges, batch); });
    add_row(timings, verdicts,
            {"arbiter_batch", "n=64,m=" + std::to_string(m), base, opt,
             scalar == batch});
  }
  {
    const std::size_t m = smoke ? 5000 : 100000;
    Rng rng(8);
    const puf::XorArbiterPuf puf =
        puf::XorArbiterPuf::independent(64, 4, 0.0, rng);
    Rng gen(10);
    std::vector<BitVec> challenges;
    challenges.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      BitVec c(64);
      for (std::size_t b = 0; b < c.size(); ++b) c.set(b, gen.coin());
      challenges.push_back(std::move(c));
    }
    std::vector<int> scalar(m), batch(m);
    const double base = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < m; ++i) scalar[i] = puf.eval_pm(challenges[i]);
    });
    const double opt =
        best_seconds(reps, [&] { puf.eval_pm_batch(challenges, batch); });
    add_row(timings, verdicts,
            {"xor_batch", "n=64,k=4,m=" + std::to_string(m), base, opt,
             scalar == batch});
  }

  // Held-out accuracy pass (the core::evaluate test phase).
  {
    const std::size_t m = smoke ? 5000 : 100000;
    Rng rng(4);
    const puf::ArbiterPuf puf(64, 0.0, rng);
    const puf::CrpSet set = puf::CrpSet::collect_uniform(puf, m, rng);
    double legacy = 0.0;
    const double base =
        best_seconds(reps, [&] { legacy = legacy_accuracy(set, puf); });
    double optimized = 0.0;
    const double opt =
        best_seconds(reps, [&] { optimized = set.accuracy_of(puf); });
    add_row(timings, verdicts,
            {"accuracy", "n=64,m=" + std::to_string(m), base, opt,
             legacy == optimized});
  }

  // XOR-model fit: the seed's per-sample scalar RProp loop vs the library's
  // two-layout vectorised fit, one restart of at most 200 iterations as in
  // the learning-curve benchmark. Contractually bit-identical: same weights
  // and iteration count.
  for (const std::size_t k : {1, 3}) {
    const std::size_t m = smoke ? 500 : 2000;
    Rng rng(12 + k);
    const puf::XorArbiterPuf puf =
        puf::XorArbiterPuf::independent(64, k, 0.0, rng);
    const puf::CrpSet train = puf::CrpSet::collect_uniform(puf, m, rng);
    ml::XorModelConfig config;
    config.chains = k;
    config.restarts = 1;
    config.max_iters = 200;
    LegacyXorConfig legacy_config;
    static_cast<ml::XorModelConfig&>(legacy_config) = config;
    std::vector<std::vector<double>> legacy;
    ml::XorModelResult legacy_stats;
    const double base = best_seconds(reps, [&] {
      Rng fit_rng(5);
      legacy = legacy_xor_fit(legacy_config, train.challenges(),
                              train.responses(), ml::parity_with_bias,
                              fit_rng, &legacy_stats);
    });
    std::vector<std::vector<double>> optimized;
    ml::XorModelResult optimized_stats;
    const double opt = best_seconds(reps, [&] {
      Rng fit_rng(5);
      optimized = ml::XorModelAttack(config)
                      .fit(train.challenges(), train.responses(),
                           ml::parity_with_bias, fit_rng, &optimized_stats)
                      .weights();
    });
    add_row(timings, verdicts,
            {"xor_fit",
             "n=64,k=" + std::to_string(k) + ",m=" + std::to_string(m), base,
             opt,
             legacy == optimized &&
                 legacy_stats.iterations == optimized_stats.iterations});
  }

  // Fair-coin fill: the per-bit `set(i, coin())` loop vs Rng::fill_coins,
  // which builds each word in a register next to the inlined engine step.
  // Contractually identical: same bits and the same next draw afterwards.
  for (const std::size_t n : {64, 130}) {
    const std::size_t m = smoke ? 2000 : 100000;
    std::vector<BitVec> legacy(m, BitVec(n));
    std::uint64_t legacy_next = 0;
    const double base = best_seconds(reps, [&] {
      Rng gen(13);
      for (BitVec& v : legacy)
        for (std::size_t b = 0; b < n; ++b) v.set(b, gen.coin());
      legacy_next = gen();
    });
    std::vector<BitVec> optimized(m, BitVec(n));
    std::uint64_t optimized_next = 0;
    const double opt = best_seconds(reps, [&] {
      Rng gen(13);
      for (BitVec& v : optimized) gen.fill_coins(v);
      optimized_next = gen();
    });
    add_row(timings, verdicts,
            {"coin_fill", "n=" + std::to_string(n) + ",m=" + std::to_string(m),
             base, opt, legacy == optimized && legacy_next == optimized_next});
  }

  timings.print(std::cout);
  std::cout << "pool threads: " << support::pool_thread_count() << "\n\n";
  reporter.print(std::cout, verdicts);

  std::cout << "\nBaselines are the seed (pre-parallel-layer) loops; the\n"
               "optimized kernels are what the library now ships. WHT,\n"
               "estimation, noise sensitivity, the XOR-model fit and the\n"
               "coin fill are bit-identical to their baselines ('outputs\n"
               "match'); collection intentionally uses different\n"
               "(chunk-seeded) random streams.\n";
  const int status = reporter.finish();
  // A kernel whose outputs differ from its baseline fails the run, and with
  // it the bench_smoke ctest.
  for (const auto& row : verdicts.data()) {
    if (row.back() == "NO") {
      std::cerr << "bench_micro_kernels: " << row[0] << "(" << row[1]
                << ") outputs differ from the baseline\n";
      return 1;
    }
  }
  return status;
}
