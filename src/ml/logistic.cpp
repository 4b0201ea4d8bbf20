// Both RProp modeling attacks of [8]: LogisticRegression (one linear model)
// and XorModelAttack (a product of k). They share one feature matrix, one
// score pass, one gradient pass and one step rule, and differ only in the
// per-sample loss derivative, the stop rule and the XOR fit's restarts.
#include "ml/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/portable_tanh.hpp"
#include "ml/xor_model.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

namespace {

/// Samples per score-pass block. Each sample is one SIMD lane with its own
/// add chain; 32 lanes are eight AVX2 registers, enough independent chains
/// to hide the add latency.
constexpr std::size_t kLanes = 32;

/// The training features of one fit, stored twice so that both passes of an
/// RProp iteration stream contiguous memory and keep the scalar add order.
struct FeatureMatrix {
  std::size_t m = 0;       // samples
  std::size_t dim = 0;     // features per sample
  std::size_t stride = 0;  // m rounded up to kLanes; padding lanes are 0
  std::vector<double> rows;  // rows[s * dim + i]: gradient pass
  std::vector<double> cols;  // cols[i * stride + s]: score pass
};

FeatureMatrix build_features(const std::vector<BitVec>& challenges,
                             const FeatureMap& features) {
  FeatureMatrix x;
  x.m = challenges.size();
  for (std::size_t s = 0; s < x.m; ++s) {
    const std::vector<double> phi = features(challenges[s]);
    if (s == 0) {
      x.dim = phi.size();
      PITFALLS_REQUIRE(x.dim > 0, "features must be non-empty");
      x.rows.reserve(x.m * x.dim);
    }
    PITFALLS_REQUIRE(phi.size() == x.dim, "ragged feature matrix");
    x.rows.insert(x.rows.end(), phi.begin(), phi.end());
  }
  x.stride = (x.m + kLanes - 1) / kLanes * kLanes;
  x.cols.assign(x.dim * x.stride, 0.0);
  for (std::size_t s = 0; s < x.m; ++s)
    for (std::size_t i = 0; i < x.dim; ++i)
      x.cols[i * x.stride + s] = x.rows[s * x.dim + i];
  return x;
}

// The two kernels. Each is compiled twice, for the baseline ISA and for
// AVX2, from one always-inlined body. Vectorising them changes no result:
// every lane performs the scalar loop's separate IEEE multiply and add in
// the scalar loop's order, and AVX2 without FMA has no fused multiply-add
// to contract them into.

// scores[j * stride + s] = w_j . x_s for every chain j and sample s, each
// lane adding w_j[i] * x_s[i] in ascending i from 0.0, as the scalar dot
// product does.
[[gnu::always_inline]] inline void score_body(
    const double* __restrict cols, std::size_t stride, std::size_t dim,
    const double* __restrict w, std::size_t chains,
    double* __restrict scores) {
  for (std::size_t b = 0; b < stride; b += kLanes) {
    for (std::size_t j = 0; j < chains; ++j) {
      const double* wj = w + j * dim;
      double acc[kLanes] = {};
      for (std::size_t i = 0; i < dim; ++i) {
        const double wi = wj[i];
        const double* col = cols + i * stride + b;
        for (std::size_t s = 0; s < kLanes; ++s) acc[s] += wi * col[s];
      }
      std::copy(acc, acc + kLanes, scores + j * stride + b);
    }
  }
}

// grad[j * dim + i] += factors[s * chains + j] * x_s[i] over the listed
// samples, in ascending sample order per coordinate, as the scalar loop
// accumulates them. Four samples are added per load and store of the
// gradient, one after another.
[[gnu::always_inline]] inline void gradient_body(
    const double* __restrict rows, std::size_t dim,
    const double* __restrict factors, std::size_t chains,
    const std::size_t* __restrict samples, std::size_t count,
    double* __restrict grad) {
  std::size_t a = 0;
  for (; a + 4 <= count; a += 4) {
    const double* r0 = rows + samples[a] * dim;
    const double* r1 = rows + samples[a + 1] * dim;
    const double* r2 = rows + samples[a + 2] * dim;
    const double* r3 = rows + samples[a + 3] * dim;
    for (std::size_t j = 0; j < chains; ++j) {
      const double f0 = factors[samples[a] * chains + j];
      const double f1 = factors[samples[a + 1] * chains + j];
      const double f2 = factors[samples[a + 2] * chains + j];
      const double f3 = factors[samples[a + 3] * chains + j];
      double* gj = grad + j * dim;
      for (std::size_t i = 0; i < dim; ++i) {
        double g = gj[i];
        g += f0 * r0[i];
        g += f1 * r1[i];
        g += f2 * r2[i];
        g += f3 * r3[i];
        gj[i] = g;
      }
    }
  }
  for (; a < count; ++a) {
    const std::size_t s = samples[a];
    const double* row = rows + s * dim;
    for (std::size_t j = 0; j < chains; ++j) {
      const double factor = factors[s * chains + j];
      double* gj = grad + j * dim;
      for (std::size_t i = 0; i < dim; ++i) gj[i] += factor * row[i];
    }
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PITFALLS_HAVE_AVX2_KERNEL 1
__attribute__((target("avx2"))) void score_avx2(
    const double* cols, std::size_t stride, std::size_t dim, const double* w,
    std::size_t chains, double* scores) {
  score_body(cols, stride, dim, w, chains, scores);
}

__attribute__((target("avx2"))) void gradient_avx2(
    const double* rows, std::size_t dim, const double* factors,
    std::size_t chains, const std::size_t* samples, std::size_t count,
    double* grad) {
  gradient_body(rows, dim, factors, chains, samples, count, grad);
}

bool has_avx2() {
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2") != 0;
  return kHasAvx2;
}
#endif

void score_pass(const FeatureMatrix& x, const double* w, std::size_t chains,
                double* scores) {
#if defined(PITFALLS_HAVE_AVX2_KERNEL)
  if (has_avx2()) {
    score_avx2(x.cols.data(), x.stride, x.dim, w, chains, scores);
    return;
  }
#endif
  score_body(x.cols.data(), x.stride, x.dim, w, chains, scores);
}

void gradient_pass(const FeatureMatrix& x, const double* factors,
                   std::size_t chains, const std::size_t* samples,
                   std::size_t count, double* grad) {
#if defined(PITFALLS_HAVE_AVX2_KERNEL)
  if (has_avx2()) {
    gradient_avx2(x.rows.data(), x.dim, factors, chains, samples, count,
                  grad);
    return;
  }
#endif
  gradient_body(x.rows.data(), x.dim, factors, chains, samples, count, grad);
}

/// Where a fit's RProp steps start and the range they are clamped to.
struct StepSizes {
  double init;
  double min;
  double max;
};

constexpr StepSizes kLogisticSteps{0.05, 1e-8, 10.0};
constexpr StepSizes kXorSteps{0.02, 1e-7, 2.0};
/// The logistic fit stops once the gradient norm falls below this.
constexpr double kLogisticTolerance = 1e-6;

/// One RProp update of every coordinate: its step grows by 1.2 while its
/// gradient keeps its sign and halves when the sign flips, within
/// [sizes.min, sizes.max], and the weight moves against the sign by it.
void rprop_update(const StepSizes& sizes, const std::vector<double>& grad,
                  std::vector<double>& prev_grad, std::vector<double>& step,
                  std::vector<double>& w) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double sign_product = grad[i] * prev_grad[i];
    if (sign_product > 0.0)
      step[i] = std::min(step[i] * 1.2, sizes.max);
    else if (sign_product < 0.0)
      step[i] = std::max(step[i] * 0.5, sizes.min);
    if (grad[i] > 0.0)
      w[i] -= step[i];
    else if (grad[i] < 0.0)
      w[i] += step[i];
    prev_grad[i] = grad[i];
  }
}

}  // namespace

LinearModel LogisticRegression::fit_model(
    const std::vector<BitVec>& challenges, const std::vector<int>& responses,
    const FeatureMap& features, support::Rng& rng,
    LogisticResult* stats) const {
  PITFALLS_REQUIRE(!challenges.empty(), "empty training set");
  PITFALLS_REQUIRE(challenges.size() == responses.size(),
                   "feature/label count mismatch");
  for (auto label : responses)
    PITFALLS_REQUIRE(label == +1 || label == -1, "labels must be +/-1");

  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "ml.logistic.fit_seconds");

  const FeatureMatrix x = build_features(challenges, features);
  const double m = static_cast<double>(x.m);
  std::vector<double> w(x.dim);
  for (auto& weight : w) weight = 0.01 * rng.gaussian();
  std::vector<double> step(x.dim, kLogisticSteps.init), prev_grad(x.dim, 0.0),
      grad(x.dim), scores(x.stride), factors(x.m);
  std::vector<std::size_t> samples(x.m);
  std::iota(samples.begin(), samples.end(), std::size_t{0});

  std::size_t iter = 0;
  for (; iter < config_.max_iters; ++iter) {
    // Gradient of the negative log-likelihood with +/-1 labels,
    // sum log(1 + exp(-y w.x)): sample s contributes -y sigma(-z) x_s.
    score_pass(x, w.data(), 1, scores.data());
    for (std::size_t s = 0; s < x.m; ++s) {
      const double y = static_cast<double>(responses[s]);
      const double z = y * scores[s];
      // Stable sigma(-z) from the one exp(-|z|).
      const double e = std::exp(z > 0 ? -z : z);
      const double sig = z > 0 ? e / (1.0 + e) : 1.0 / (1.0 + e);
      factors[s] = -y * sig / m;
    }
    std::fill(grad.begin(), grad.end(), 0.0);
    gradient_pass(x, factors.data(), 1, samples.data(), x.m, grad.data());

    double grad_norm = 0.0;
    for (auto g : grad) grad_norm += g * g;
    if (std::sqrt(grad_norm) < kLogisticTolerance) break;
    rprop_update(kLogisticSteps, grad, prev_grad, step, w);
  }

  // The loss of the last scored weights: the weights the loop stopped at,
  // or, after max_iters, those before the last step.
  double loss = 0.0;
  if (config_.max_iters > 0) {
    for (std::size_t s = 0; s < x.m; ++s) {
      const double z = static_cast<double>(responses[s]) * scores[s];
      // Stable log(1 + exp(-z)).
      const double e = std::exp(z > 0 ? -z : z);
      loss += (z > 0 ? std::log1p(e) : -z + std::log1p(e)) / m;
    }
  }

  registry.counter("ml.logistic.fits").add(1);
  registry.counter("ml.logistic.iterations").add(iter);
  registry.gauge("ml.logistic.final_loss").set(loss);

  if (stats != nullptr) {
    stats->iterations = iter;
    stats->final_loss = loss;
  }
  return LinearModel(challenges.front().size(), std::move(w), features,
                     "logistic-regression hypothesis");
}

XorChainModel XorModelAttack::fit(const std::vector<BitVec>& challenges,
                                  const std::vector<int>& responses,
                                  const FeatureMap& features,
                                  support::Rng& rng,
                                  XorModelResult* stats) const {
  PITFALLS_REQUIRE(!challenges.empty(), "empty training set");
  PITFALLS_REQUIRE(challenges.size() == responses.size(),
                   "challenge/response count mismatch");
  PITFALLS_REQUIRE(config_.chains >= 1, "need at least one chain");
  PITFALLS_REQUIRE(config_.restarts >= 1, "need at least one restart");
  for (auto r : responses)
    PITFALLS_REQUIRE(r == +1 || r == -1, "labels must be +/-1");

  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "ml.xor.fit_seconds");

  const FeatureMatrix x = build_features(challenges, features);
  const std::size_t m = x.m;
  const std::size_t dim = x.dim;
  const std::size_t k = config_.chains;

  // Per-fit scratch; the loops below allocate nothing. w, step, prev_grad
  // and grad hold chain j's coordinate i at [j * dim + i].
  std::vector<double> w(k * dim), step(k * dim), prev_grad(k * dim),
      grad(k * dim);
  std::vector<double> scores(k * x.stride);  // [j * stride + s]
  std::vector<double> tanhs(k * x.stride);   // tanh of each score
  std::vector<double> factors(m * k);        // [s * k + j]
  std::vector<std::size_t> contributing(m);  // samples the gradient adds
  std::vector<double> t(k);                  // one sample's tanh(s_j)

  // Training accuracy of the weights the scores were computed from.
  auto accuracy_of_scores = [&] {
    std::size_t agree = 0;
    for (std::size_t s = 0; s < m; ++s) {
      int product = 1;
      for (std::size_t j = 0; j < k; ++j)
        product *= scores[j * x.stride + s] < 0.0 ? -1 : +1;
      if (product == responses[s]) ++agree;
    }
    return static_cast<double>(agree) / static_cast<double>(m);
  };

  std::vector<double> best_weights;
  double best_accuracy = -1.0;
  std::size_t best_iterations = 0;
  std::size_t restarts_used = 0;

  for (std::size_t restart = 0; restart < config_.restarts; ++restart) {
    ++restarts_used;
    // Fresh random initialisation.
    for (auto& weight : w) weight = config_.init_scale * rng.gaussian();
    std::fill(step.begin(), step.end(), kXorSteps.init);
    std::fill(prev_grad.begin(), prev_grad.end(), 0.0);
    // Whether `scores` holds the current w's: the accuracy check scores the
    // updated weights, which the next iteration's gradient then reuses.
    bool scored = false;

    std::size_t iter = 0;
    for (; iter < config_.max_iters; ++iter) {
      // Batch gradient of NLL = -sum log((1 + y*yhat)/2) with
      // yhat = prod_j tanh(s_j), s_j = w_j . x.
      if (!scored) score_pass(x, w.data(), k, scores.data());
      portable_tanh(scores, tanhs);
      std::size_t count = 0;
      for (std::size_t s = 0; s < m; ++s) {
        double yhat = 1.0;
        for (std::size_t j = 0; j < k; ++j) {
          t[j] = tanhs[j * x.stride + s];
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
          factors[s * k + j] = coeff * (1.0 - t[j] * t[j]) * others;
        }
        contributing[count++] = s;
      }
      std::fill(grad.begin(), grad.end(), 0.0);
      gradient_pass(x, factors.data(), k, contributing.data(), count,
                    grad.data());
      rprop_update(kXorSteps, grad, prev_grad, step, w);
      scored = false;

      if ((iter & 15u) == 0) {
        score_pass(x, w.data(), k, scores.data());
        scored = true;
        if (accuracy_of_scores() >= config_.target_train_accuracy) break;
      }
    }

    if (!scored) score_pass(x, w.data(), k, scores.data());
    const double acc = accuracy_of_scores();
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
  std::vector<std::vector<double>> chain_weights;
  chain_weights.reserve(k);
  for (std::size_t j = 0; j < k; ++j)
    chain_weights.emplace_back(best_weights.begin() + j * dim,
                               best_weights.begin() + (j + 1) * dim);
  const std::size_t n = challenges.front().size();
  return XorChainModel(n, std::move(chain_weights), features);
}

}  // namespace pitfalls::ml
