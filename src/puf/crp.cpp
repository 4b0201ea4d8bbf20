#include "puf/crp.hpp"

#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"
#include "support/require.hpp"

namespace pitfalls::puf {

namespace {

BitVec uniform_challenge(std::size_t n, support::Rng& rng) {
  BitVec c(n);
  rng.fill_coins(c);
  return c;
}

}  // namespace

CrpSet::CrpSet(std::vector<BitVec> challenges, std::vector<int> responses)
    : challenges_(std::move(challenges)), responses_(std::move(responses)) {
  PITFALLS_REQUIRE(challenges_.size() == responses_.size(),
                   "challenge/response count mismatch");
  for (auto r : responses_)
    PITFALLS_REQUIRE(r == +1 || r == -1, "responses must be +/-1");
}

// Collection is chunked (support/parallel.hpp): the caller's rng yields one
// seed, chunk c generates and evaluates its slice with rng_for_chunk(seed, c),
// and slices land at fixed offsets — so the collected set is byte-identical
// for every PITFALLS_THREADS value and the caller's rng advances by exactly
// one draw. Requires puf.eval_* to be const-thread-safe (all simulators are:
// evaluation is pure; noise draws come from the chunk's own stream).
CrpSet CrpSet::collect_uniform(const Puf& puf, std::size_t m,
                               support::Rng& rng) {
  obs::MetricsRegistry::global().counter("puf.crp.uniform_collected").add(m);
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  std::vector<BitVec> challenges(m);
  std::vector<int> responses(m);
  support::parallel_for_chunks(
      m,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // One batch per chunk. eval_pm draws nothing, so generating the
        // whole slice before evaluating consumes the chunk stream exactly
        // as the old per-element loop — byte-identical, now on the
        // bit-sliced path.
        for (std::size_t i = begin; i < end; ++i)
          challenges[i] = uniform_challenge(n, chunk_rng);
        puf.eval_pm_batch(
            std::span<const BitVec>(challenges.data() + begin, end - begin),
            std::span<int>(responses.data() + begin, end - begin));
        obs::observe_batch("puf.crp.collect", end - begin);
      },
      "puf.crp.collect");
  return CrpSet(std::move(challenges), std::move(responses));
}

CrpSet CrpSet::collect_noisy(const Puf& puf, std::size_t m,
                             support::Rng& rng) {
  obs::MetricsRegistry::global().counter("puf.crp.noisy_collected").add(m);
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  std::vector<BitVec> challenges(m);
  std::vector<int> responses(m);
  support::parallel_for_chunks(
      m,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // Chunk stream order: all challenge coins first, then the noise
        // draws in challenge order (eval_noisy_batch's contract). This
        // de-interleaves the old per-element gen/measure pattern — still
        // fully deterministic and thread-count invariant, but a different
        // (documented) draw schedule than the pre-batch layout.
        for (std::size_t i = begin; i < end; ++i)
          challenges[i] = uniform_challenge(n, chunk_rng);
        puf.eval_noisy_batch(
            std::span<const BitVec>(challenges.data() + begin, end - begin),
            std::span<int>(responses.data() + begin, end - begin), chunk_rng);
        obs::observe_batch("puf.crp.collect", end - begin);
      },
      "puf.crp.collect");
  return CrpSet(std::move(challenges), std::move(responses));
}

CrpSet CrpSet::collect_stable(const Puf& puf, std::size_t m,
                              std::size_t repeats, support::Rng& rng) {
  PITFALLS_REQUIRE(repeats >= 2, "stability needs at least two measurements");
  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer timer(registry, "puf.crp.collect_stable_seconds");
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  // Each chunk fills its own quota by rejection sampling from its own
  // stream, so the rejection accounting (and the too-noisy guard, applied
  // per chunk at the same 1000x-quota rate as the old global guard) is as
  // deterministic as the accepted challenges themselves.
  const support::ChunkPlan plan = support::plan_chunks(m);
  std::vector<BitVec> challenges(m);
  std::vector<int> responses(m);
  std::vector<std::size_t> chunk_rejections(plan.count, 0);
  support::parallel_for_chunks(
      m,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        const std::size_t quota = end - begin;
        std::size_t rejections = 0;
        std::size_t filled = 0;
        // Round-based rejection sampling on the batch plane: each round
        // generates one candidate per unfilled slot, measures the whole
        // block, then re-measures only the still-consistent survivors for
        // the remaining repeats (the batch analogue of the old per-candidate
        // early exit). Draw schedule: per round, all challenge coins, then
        // one noise draw per live candidate per measurement pass —
        // deterministic and thread-count invariant by construction.
        std::vector<BitVec> candidates;
        std::vector<BitVec> live_challenges;
        std::vector<int> first(quota);
        std::vector<int> measured;
        std::vector<std::size_t> live;
        while (filled < quota) {
          PITFALLS_REQUIRE(rejections < 1000 * (quota + 1),
                           "PUF too noisy: no stable challenges found");
          const std::size_t block = quota - filled;
          candidates.resize(block);
          for (std::size_t b = 0; b < block; ++b)
            candidates[b] = uniform_challenge(n, chunk_rng);
          puf.eval_noisy_batch(
              std::span<const BitVec>(candidates.data(), block),
              std::span<int>(first.data(), block), chunk_rng);
          live.resize(block);
          for (std::size_t b = 0; b < block; ++b) live[b] = b;
          for (std::size_t t = 1; t < repeats && !live.empty(); ++t) {
            live_challenges.clear();
            for (const std::size_t b : live)
              live_challenges.push_back(candidates[b]);
            measured.resize(live.size());
            puf.eval_noisy_batch(live_challenges,
                                 std::span<int>(measured.data(), live.size()),
                                 chunk_rng);
            std::size_t kept = 0;
            for (std::size_t j = 0; j < live.size(); ++j)
              if (measured[j] == first[live[j]]) live[kept++] = live[j];
            live.resize(kept);
          }
          rejections += block - live.size();
          for (const std::size_t b : live) {
            challenges[begin + filled] = std::move(candidates[b]);
            responses[begin + filled] = first[b];
            ++filled;
          }
          obs::observe_batch("puf.crp.collect", block);
        }
        chunk_rejections[chunk] = rejections;
      },
      "puf.crp.collect");
  std::size_t total_rejections = 0;
  for (const auto r : chunk_rejections) total_rejections += r;
  registry.counter("puf.crp.stable_collected").add(m);
  registry.counter("puf.crp.unstable_rejected").add(total_rejections);
  return CrpSet(std::move(challenges), std::move(responses));
}

void CrpSet::add(BitVec challenge, int response) {
  PITFALLS_REQUIRE(response == +1 || response == -1, "response must be +/-1");
  PITFALLS_REQUIRE(challenges_.empty() ||
                       challenge.size() == challenges_.front().size(),
                   "all challenges must share one arity");
  challenges_.push_back(std::move(challenge));
  responses_.push_back(response);
}

CrpSet CrpSet::prefix(std::size_t count) const {
  PITFALLS_REQUIRE(count <= size(), "prefix longer than the set");
  return CrpSet(
      std::vector<BitVec>(challenges_.begin(), challenges_.begin() + count),
      std::vector<int>(responses_.begin(), responses_.begin() + count));
}

std::pair<CrpSet, CrpSet> CrpSet::split_at(std::size_t train_count) const {
  PITFALLS_REQUIRE(train_count <= size(), "split point past the end");
  CrpSet train(
      std::vector<BitVec>(challenges_.begin(),
                          challenges_.begin() + train_count),
      std::vector<int>(responses_.begin(), responses_.begin() + train_count));
  CrpSet test(
      std::vector<BitVec>(challenges_.begin() + train_count,
                          challenges_.end()),
      std::vector<int>(responses_.begin() + train_count, responses_.end()));
  return {std::move(train), std::move(test)};
}

void CrpSet::shuffle(support::Rng& rng) {
  for (std::size_t i = size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_below(i));
    std::swap(challenges_[i - 1], challenges_[j]);
    std::swap(responses_[i - 1], responses_[j]);
  }
}

CrpSet CrpSet::relabel(const boolfn::BooleanFunction& f) const {
  std::vector<int> labels(size());
  f.eval_pm_batch(challenges_, labels);
  return CrpSet(challenges_, std::move(labels));
}

double CrpSet::accuracy_of(const boolfn::BooleanFunction& f) const {
  PITFALLS_REQUIRE(!empty(), "accuracy over an empty CRP set");
  // Same chunk plan and chunk-order reduction as the predictor overload,
  // but each chunk evaluates its slice through the batch plane so PUFs and
  // other bit-sliced hypotheses skip per-element dispatch. eval_pm is pure,
  // so batch == scalar element-wise and the count is unchanged.
  const std::size_t agree = support::parallel_reduce(
      size(), std::size_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<int> predicted(end - begin);
        f.eval_pm_batch(
            std::span<const BitVec>(challenges_.data() + begin, end - begin),
            predicted);
        obs::observe_batch("puf.crp.accuracy", end - begin);
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i)
          if (predicted[i - begin] == responses_[i]) ++local;
        return local;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; },
      "puf.crp.accuracy");
  return static_cast<double>(agree) / static_cast<double>(size());
}

double CrpSet::accuracy_of(
    const std::function<int(const BitVec&)>& predictor) const {
  PITFALLS_REQUIRE(!empty(), "accuracy over an empty CRP set");
  // A held-out pass calls the predictor once per example, so fan the
  // agreement count out over examples. Integer reduction combined in
  // chunk order: exact for any thread count. The predictor is invoked
  // concurrently and must be const-thread-safe (every hypothesis class in
  // the library has a pure eval).
  const std::size_t agree = support::parallel_reduce(
      size(), std::size_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i)
          if (predictor(challenges_[i]) == responses_[i]) ++local;
        return local;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; },
      "puf.crp.accuracy");
  return static_cast<double>(agree) / static_cast<double>(size());
}

}  // namespace pitfalls::puf
