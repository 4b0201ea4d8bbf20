#include "serve/token_fleet.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "support/require.hpp"

namespace pitfalls::serve {

TokenFleet::TokenFleet(const TokenFleetConfig& config) : config_(config) {
  PITFALLS_REQUIRE(config_.tokens > 0, "fleet needs at least one token");
  PITFALLS_REQUIRE(config_.shards > 0, "fleet needs at least one shard");
  PITFALLS_REQUIRE(config_.resident_limit > 0,
                   "fleet needs a positive resident limit");
  puf::validate(config_.spec);
  per_shard_limit_ = config_.resident_limit / config_.shards;
  if (per_shard_limit_ == 0) per_shard_limit_ = 1;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const puf::XorArbiterPuf> TokenFleet::acquire(
    std::uint64_t token_id) {
  PITFALLS_REQUIRE(token_id < config_.tokens,
                   "token id outside the fleet population");
  auto& registry = obs::MetricsRegistry::global();
  Shard& shard = *shards_[token_id % config_.shards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(token_id);
    if (it != shard.entries.end()) {
      // Refresh the LRU position under the same lock.
      shard.by_tick.erase(it->second.tick);
      it->second.tick = shard.next_tick++;
      shard.by_tick.emplace(it->second.tick, token_id);
      registry.counter("serve.fleet.hits").add();
      return it->second.model;
    }
  }
  // Materialize outside the lock: weights are a pure function of
  // (fleet seed, token id), so two threads racing here compute the same
  // model and whichever inserts second simply adopts the winner's entry.
  auto model = std::make_shared<const puf::XorArbiterPuf>(
      puf::materialize_token(config_.spec, config_.seed, token_id));
  registry.counter("serve.fleet.materializations").add();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(token_id);
  if (it != shard.entries.end()) return it->second.model;
  Entry entry;
  entry.model = std::move(model);
  entry.tick = shard.next_tick++;
  shard.by_tick.emplace(entry.tick, token_id);
  auto inserted = shard.entries.emplace(token_id, std::move(entry)).first;
  while (shard.entries.size() > per_shard_limit_) {
    const auto oldest = shard.by_tick.begin();
    shard.entries.erase(oldest->second);
    shard.by_tick.erase(oldest);
    registry.counter("serve.fleet.evictions").add();
  }
  return inserted->second.model;
}

std::size_t TokenFleet::resident() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

std::string TokenFleet::fingerprint() const {
  std::ostringstream out;
  out << "fleet/v1 seed=" << config_.seed << " tokens=" << config_.tokens
      << " stages=" << config_.spec.stages << " chains=" << config_.spec.chains
      << " sigma=" << config_.spec.noise_sigma;
  return out.str();
}

}  // namespace pitfalls::serve
