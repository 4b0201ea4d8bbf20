// Seed -> token materialization: the fleet-scale view of a PUF population.
//
// A deployed token is, for simulation purposes, nothing but a seed: the
// fabrication randomness that fixed its delay deviations. A fleet of
// millions of tokens therefore needs no storage per instance — a token's
// full model is a pure function of (fleet seed, token id, TokenSpec),
// derived through the same SplitMix64 stream construction the parallel
// layer uses (support::rng_for_chunk), so materializing token #k twice, on
// any machine, at any PITFALLS_THREADS, yields bit-identical weights.
//
// This is the population view the NUS unified-framework paper argues
// security must be qualified over: per-instance verdicts ("token #12 is
// learnable with m CRPs") only compose into a deployment claim when the
// instance population is reproducible. serve::TokenFleet builds its
// sharded, LRU-bounded resident cache directly on these two functions.
#pragma once

#include <cstdint>

#include "puf/xor_arbiter.hpp"

namespace pitfalls::puf {

/// The per-population hardware parameters every token of a fleet shares.
/// Individual tokens differ only in their seed-derived weights.
struct TokenSpec {
  std::size_t stages = 64;
  std::size_t chains = 2;
  double noise_sigma = 0.0;
};

/// Throws std::invalid_argument unless every token of a fleet with this
/// spec can be materialized: stages > 0, chains > 0, and noise_sigma
/// finite and >= 0. materialize_token and serve::TokenFleet's constructor
/// share it, so a fleet that could not serve is refused before it starts.
void validate(const TokenSpec& spec);

/// The root seed of token `token_id` within the fleet seeded by
/// `fleet_seed`: SplitMix64-mixed so neighbouring token ids produce
/// statistically independent instances (the rng_for_chunk construction).
std::uint64_t token_seed(std::uint64_t fleet_seed, std::uint64_t token_id);

/// Materialize the token's full simulation model. Pure: byte-identical
/// weights for identical (spec, fleet_seed, token_id) on every call.
XorArbiterPuf materialize_token(const TokenSpec& spec,
                                std::uint64_t fleet_seed,
                                std::uint64_t token_id);

}  // namespace pitfalls::puf
