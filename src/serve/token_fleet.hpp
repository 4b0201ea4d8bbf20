// Sharded, LRU-bounded fleet of lazily-materialized PUF tokens —
// DESIGN.md §16.
//
// A fleet of millions of tokens costs nothing at rest: a token *is* its id
// (puf/token.hpp derives the full model from (fleet seed, id)). What must
// be bounded is the set of tokens resident in memory at once, because a
// materialized XorArbiterPuf carries stages*chains doubles. TokenFleet
// keeps residency behind `shards` independent shards (id % shards), each an
// ordered map plus an LRU index under its own mutex, so concurrent jobs
// touching different tokens never contend on one lock and the per-shard
// working set is evicted least-recently-used once the resident budget is
// exceeded.
//
// Determinism: materialization is pure, so eviction and re-materialization
// can never change a single response byte — the LRU only decides *when*
// the weights are recomputed, never what they are. Job outcomes therefore
// stay byte-identical for any resident_limit, shard count, access
// interleaving or PITFALLS_THREADS value. (The serve.fleet.* cache
// counters do depend on interleaving — which is why the daemon's wire
// stream never includes them; they live in the registry for diagnostics.)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "puf/token.hpp"

namespace pitfalls::serve {

struct TokenFleetConfig {
  std::uint64_t seed = 1;
  /// Fleet population: valid token ids are [0, tokens).
  std::uint64_t tokens = 1'000'000;
  puf::TokenSpec spec;
  /// Upper bound on simultaneously materialized token models, spread
  /// evenly over the shards (each shard holds at least one).
  std::size_t resident_limit = 4096;
  std::size_t shards = 64;
};

class TokenFleet {
 public:
  /// Throws std::invalid_argument for a fleet it could not serve: no
  /// tokens, shards or residency, or a spec puf::validate refuses.
  explicit TokenFleet(const TokenFleetConfig& config);

  /// The token's model, materializing (and possibly evicting) as needed.
  /// The returned pointer keeps the model alive even if the fleet evicts
  /// it concurrently; token_id must be < config().tokens.
  std::shared_ptr<const puf::XorArbiterPuf> acquire(std::uint64_t token_id);

  /// Tokens currently materialized across all shards.
  std::size_t resident() const;

  const TokenFleetConfig& config() const { return config_; }

  /// Canonical fleet identity (population, spec, seed) — the provenance
  /// string session snapshots are bound to, so a journal can never be
  /// replayed against a differently-configured fleet.
  std::string fingerprint() const;

 private:
  struct Entry {
    std::shared_ptr<const puf::XorArbiterPuf> model;
    std::uint64_t tick = 0;  // shard-local LRU position
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::uint64_t, Entry> entries;          // token id -> entry
    std::map<std::uint64_t, std::uint64_t> by_tick;  // tick -> token id
    std::uint64_t next_tick = 0;
  };

  TokenFleetConfig config_;
  std::size_t per_shard_limit_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pitfalls::serve
