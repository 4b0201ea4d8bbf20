#include "puf/metrics.hpp"

#include <vector>

#include "obs/metrics.hpp"
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

// All four sweeps fan out over challenges with the chunked-stream scheme of
// support/parallel.hpp (chunk c draws from rng_for_chunk(seed, c); integer
// tallies combine in chunk order), so every statistic is byte-identical for
// any PITFALLS_THREADS and the caller's rng advances by exactly one draw.

double uniformity(const Puf& puf, std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one challenge");
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  const std::size_t ones = support::parallel_reduce(
      m, std::size_t{0},
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // eval_pm draws nothing, so batching after generation is
        // byte-identical to the old interleaved loop.
        std::vector<BitVec> challenges(end - begin);
        for (auto& c : challenges) c = uniform_challenge(n, chunk_rng);
        std::vector<int> out(challenges.size());
        puf.eval_pm_batch(challenges, out);
        obs::observe_batch("puf.metrics", challenges.size());
        std::size_t local = 0;
        for (const int r : out)
          if (r < 0) ++local;
        return local;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; },
      "puf.metrics");
  return static_cast<double>(ones) / static_cast<double>(m);
}

double reliability(const Puf& puf, std::size_t m, std::size_t repeats,
                   support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0 && repeats > 0, "need challenges and repeats");
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  const std::size_t agreements = support::parallel_reduce(
      m, std::size_t{0},
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // Batch layout: all challenge coins, the ideal batch (no draws),
        // then `repeats` full noisy passes over the slice. The noise draws
        // therefore come in pass order rather than the old per-challenge
        // order — a different (documented) deterministic schedule; the
        // statistic itself is a plain integer tally either way.
        std::vector<BitVec> challenges(end - begin);
        for (auto& c : challenges) c = uniform_challenge(n, chunk_rng);
        std::vector<int> ideal(challenges.size());
        puf.eval_pm_batch(challenges, ideal);
        obs::observe_batch("puf.metrics", challenges.size());
        std::size_t local = 0;
        std::vector<int> measured(challenges.size());
        for (std::size_t t = 0; t < repeats; ++t) {
          puf.eval_noisy_batch(challenges, measured, chunk_rng);
          for (std::size_t i = 0; i < challenges.size(); ++i)
            if (measured[i] == ideal[i]) ++local;
        }
        return local;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; },
      "puf.metrics");
  return static_cast<double>(agreements) / static_cast<double>(m * repeats);
}

double uniqueness(const std::vector<const Puf*>& instances, std::size_t m,
                  support::Rng& rng) {
  PITFALLS_REQUIRE(instances.size() >= 2, "uniqueness needs >= 2 instances");
  PITFALLS_REQUIRE(m > 0, "need at least one challenge");
  const std::size_t n = instances.front()->num_vars();
  for (const auto* p : instances) {
    PITFALLS_REQUIRE(p != nullptr, "null PUF instance");
    PITFALLS_REQUIRE(p->num_vars() == n, "instances must share the arity");
  }
  const std::uint64_t seed = rng();
  const std::size_t diffs = support::parallel_reduce(
      m, std::size_t{0},
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        // One batch per instance per chunk (byte-identical: eval_pm draws
        // nothing), then the pairwise tally per challenge.
        const std::size_t count = end - begin;
        std::vector<BitVec> challenges(count);
        for (auto& c : challenges) c = uniform_challenge(n, chunk_rng);
        std::vector<std::vector<int>> responses(instances.size(),
                                                std::vector<int>(count));
        for (std::size_t p = 0; p < instances.size(); ++p)
          instances[p]->eval_pm_batch(challenges, responses[p]);
        obs::observe_batch("puf.metrics", count);
        std::size_t local = 0;
        for (std::size_t s = 0; s < count; ++s)
          for (std::size_t a = 0; a < instances.size(); ++a)
            for (std::size_t b = a + 1; b < instances.size(); ++b)
              if (responses[a][s] != responses[b][s]) ++local;
        return local;
      },
      [](std::size_t acc, std::size_t part) { return acc + part; },
      "puf.metrics");
  const std::size_t pairs =
      m * (instances.size() * (instances.size() - 1) / 2);
  return static_cast<double>(diffs) / static_cast<double>(pairs);
}

double expected_bias(const Puf& puf, std::size_t m, support::Rng& rng) {
  PITFALLS_REQUIRE(m > 0, "need at least one challenge");
  const std::uint64_t seed = rng();
  const std::size_t n = puf.num_vars();
  // +/-1 responses tally exactly in integers; the division happens once.
  const std::int64_t sum = support::parallel_reduce(
      m, std::int64_t{0},
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        support::Rng chunk_rng = support::rng_for_chunk(seed, chunk);
        std::int64_t local = 0;
        for (std::size_t i = begin; i < end; ++i)
          local += puf.eval_noisy(uniform_challenge(n, chunk_rng), chunk_rng);
        return local;
      },
      [](std::int64_t acc, std::int64_t part) { return acc + part; },
      "puf.metrics");
  return static_cast<double>(sum) / static_cast<double>(m);
}

}  // namespace pitfalls::puf
