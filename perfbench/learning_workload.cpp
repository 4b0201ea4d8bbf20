// learning_curve: one op is one learning-curve cell, i.e. one PUF at one
// CRP budget. A cell collects its training CRPs (CrpSet::collect_uniform),
// fits the XOR-model learner with one restart (ml::XorModelAttack::fit)
// and scores the fit on a held-out set collected during set-up.
//
// The PUFs are k = 1, 2 and 3 XOR arbiter PUFs and a feed-forward arbiter
// PUF attacked with a 1-chain model. That last fit cannot represent its
// target, never reaches the training-accuracy target and runs to
// max_iters: the paper's representation mismatch (§V).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ml/features.hpp"
#include "ml/xor_model.hpp"
#include "puf/crp.hpp"
#include "puf/feed_forward.hpp"
#include "puf/xor_arbiter.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace perfbench {
namespace {

using pitfalls::puf::CrpSet;
using pitfalls::support::Rng;
namespace ml = pitfalls::ml;
namespace puf = pitfalls::puf;

constexpr std::size_t kStages = 64;
constexpr std::size_t kCurvesPerKind = 7;
constexpr std::size_t kHoldout = 2000;
constexpr std::size_t kBudgets[] = {250, 500, 1000, 2000};
/// Iteration cap of every fit; the mismatched fits always reach it.
constexpr std::size_t kMaxIters = 200;
/// Held-out accuracy every k = 1 fit must reach at the top budget.
constexpr double kChainOneFloor = 0.95;
/// Held-out labels per curve re-evaluated with the scalar kernel.
constexpr std::size_t kLabelChecks = 64;

struct Curve {
  std::unique_ptr<puf::Puf> target;
  std::size_t chains = 1;  // model chains; also the PUF's k except for FF
  bool mismatch = false;   // feed-forward target, 1-chain model
  CrpSet holdout;
};

struct Tallies {
  std::uint64_t cells = 0;
  std::uint64_t iterations = 0;
};

class LearningWorkload final : public Workload {
 public:
  explicit LearningWorkload(std::uint64_t seed) : seed_(seed) {}

  RepStats run_rep(Recorder& recorder) override {
    RepStats stats;
    const double start = now_s();
    Rng rng(seed_ ^ 0x6c6561726e2d6375ULL);
    const std::vector<Curve> curves = build(rng, recorder);
    {
      // Untimed warm-up cell, part of set-up: the first feed-forward curve
      // at the top budget. Its 1-chain fit cannot converge and always runs
      // all kMaxIters iterations, so most of set-up is a fixed amount of
      // CPU-bound work (a converging fit's length depends on the seed). The
      // held-out collection alone, 11 to 18 ms of mostly fresh allocations,
      // varies too much from rep to rep to time on its own.
      const Curve& curve = curves[3];
      Rng warm_rng(rng());
      const std::ptrdiff_t span = recorder.open("ml.xor.warmup", 0);
      const CrpSet train = CrpSet::collect_uniform(
          *curve.target, kBudgets[std::size(kBudgets) - 1], warm_rng);
      ml::XorModelConfig config;
      config.chains = curve.chains;
      config.restarts = 1;
      config.max_iters = kMaxIters;
      ml::XorModelAttack(config).fit(train.challenges(), train.responses(),
                                     ml::parity_with_bias, warm_rng);
      recorder.close(span);
    }
    stats.setup_s = now_s() - start;

    std::uint64_t op = 0;
    for (const Curve& curve : curves) {
      for (const std::size_t budget : kBudgets) {
        Rng cell_rng(rng());
        ml::XorModelConfig config;
        config.chains = curve.chains;
        config.restarts = 1;
        config.max_iters = kMaxIters;
        ml::XorModelResult fit_stats;

        const double cpu_before = cpu_s();
        const double t0 = now_s();
        const std::ptrdiff_t root = recorder.add("op.cell", t0, t0, op);
        std::ptrdiff_t span = recorder.open("puf.collect", op, root);
        const CrpSet train =
            CrpSet::collect_uniform(*curve.target, budget, cell_rng);
        recorder.close(span);
        span = recorder.open("ml.xor.fit", op, root);
        const ml::XorChainModel model = ml::XorModelAttack(config).fit(
            train.challenges(), train.responses(), ml::parity_with_bias,
            cell_rng, &fit_stats);
        recorder.close(span);
        span = recorder.open("ml.xor.score", op, root);
        const double accuracy = curve.holdout.accuracy_of(model);
        recorder.close(span);
        const double t1 = now_s();
        recorder.close_at(root, t1);
        stats.cpu_s += cpu_s() - cpu_before;
        stats.timed_s += t1 - t0;
        stats.latency_s.push_back(t1 - t0);
        ++stats.ops;
        if (recorder.enabled()) {
          ++tallies_.cells;
          tallies_.iterations += fit_stats.iterations;
        }

        const bool top = budget == kBudgets[std::size(kBudgets) - 1];
        if (curve.chains == 1 && !curve.mismatch && top &&
            accuracy < kChainOneFloor)
          ++stats.failed;
        char record[64];
        std::snprintf(record, sizeof(record), "%.17g/%zu;", accuracy,
                      fit_stats.iterations);
        stats.digest = pitfalls::support::snapshot::crc32(record, stats.digest);
        ++op;
      }
    }
    // CrpSet labels its CRPs with eval_pm_batch; a sample of every curve's
    // held-out labels must match the scalar eval_pm that batch kernels are
    // defined against. Outside the op timing; one failure per bad curve.
    for (const Curve& curve : curves) {
      bool labels_ok = true;
      for (std::size_t i = 0; i < kLabelChecks; ++i)
        labels_ok = labels_ok &&
                    curve.target->eval_pm(curve.holdout.challenges()[i]) ==
                        curve.holdout.responses()[i];
      if (!labels_ok) ++stats.failed;
    }
    return stats;
  }

  std::map<std::string, double> layer_metrics(
      const Recorder& recorder) const override {
    const auto times = recorder.self_times();
    const auto total = [&](const char* name) {
      const auto it = times.find(name);
      return it == times.end() ? 0.0 : it->second.total_s;
    };
    const double cells = static_cast<double>(tallies_.cells);
    const double iterations = static_cast<double>(tallies_.iterations);
    std::map<std::string, double> out;
    if (cells == 0.0) return out;
    out["puf.collect_ms"] = total("puf.collect") * 1e3 / cells;
    out["ml.xor.fit_ms"] = total("ml.xor.fit") * 1e3 / cells;
    out["ml.xor.iterations"] = iterations / cells;
    out["ml.xor.us_per_iteration"] =
        iterations > 0.0 ? total("ml.xor.fit") * 1e6 / iterations : 0.0;
    return out;
  }

  std::string describe() const override {
    return "learning_curve: " + std::to_string(4 * kCurvesPerKind) +
           " curves (k=1,2,3 XOR arbiter and feed-forward under a 1-chain "
           "model, n=64) x " + std::to_string(std::size(kBudgets)) +
           " budgets (250-2000 CRPs), 1 restart and at most " +
           std::to_string(kMaxIters) + " iterations per fit";
  }

 private:
  std::vector<Curve> build(Rng& rng, Recorder& recorder) const {
    std::vector<Curve> curves;
    for (std::size_t i = 0; i < kCurvesPerKind; ++i) {
      for (std::size_t kind = 0; kind < 4; ++kind) {
        Curve curve;
        const std::ptrdiff_t span = recorder.open("puf.instantiate", 0);
        if (kind < 3) {
          curve.chains = kind + 1;
          curve.target = std::make_unique<puf::XorArbiterPuf>(
              puf::XorArbiterPuf::independent(kStages, curve.chains, 0.0,
                                              rng));
        } else {
          curve.mismatch = true;
          curve.target = std::make_unique<puf::FeedForwardArbiterPuf>(
              kStages, 4, 0.0, rng);
        }
        recorder.close(span);
        const std::ptrdiff_t holdout = recorder.open("puf.holdout", 0);
        curve.holdout = CrpSet::collect_uniform(*curve.target, kHoldout, rng);
        recorder.close(holdout);
        curves.push_back(std::move(curve));
      }
    }
    return curves;
  }

  std::uint64_t seed_;
  Tallies tallies_;
};

}  // namespace

std::unique_ptr<Workload> make_learning_curve(std::uint64_t seed) {
  return std::make_unique<LearningWorkload>(seed);
}

}  // namespace perfbench
