#include "puf/token.hpp"

#include <cmath>

#include "support/parallel.hpp"
#include "support/require.hpp"

namespace pitfalls::puf {

std::uint64_t token_seed(std::uint64_t fleet_seed, std::uint64_t token_id) {
  // One draw from the token's rng_for_chunk stream: the same SplitMix64
  // construction the parallel layer derives chunk streams from, so token
  // streams can never collide with each other (or with chunk streams of a
  // different root seed) by accident.
  support::Rng rng =
      support::rng_for_chunk(fleet_seed, static_cast<std::size_t>(token_id));
  return rng();
}

void validate(const TokenSpec& spec) {
  PITFALLS_REQUIRE(spec.stages > 0, "token spec needs at least one stage");
  PITFALLS_REQUIRE(spec.chains > 0, "token spec needs at least one chain");
  PITFALLS_REQUIRE(std::isfinite(spec.noise_sigma) && spec.noise_sigma >= 0.0,
                   "token noise sigma must be finite and >= 0");
}

XorArbiterPuf materialize_token(const TokenSpec& spec,
                                std::uint64_t fleet_seed,
                                std::uint64_t token_id) {
  validate(spec);
  support::Rng rng =
      support::rng_for_chunk(fleet_seed, static_cast<std::size_t>(token_id));
  return XorArbiterPuf::independent(spec.stages, spec.chains,
                                    spec.noise_sigma, rng);
}

}  // namespace pitfalls::puf
