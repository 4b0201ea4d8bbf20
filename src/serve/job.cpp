#include "serve/job.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/require.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::serve {

namespace {

const obs::JsonValue& member(const obs::JsonValue& object,
                             std::string_view name) {
  const obs::JsonValue* value = object.find(name);
  PITFALLS_REQUIRE(value != nullptr,
                   "job request is missing the \"" + std::string(name) +
                       "\" field");
  return *value;
}

std::uint64_t as_u64(const obs::JsonValue& value, std::string_view name) {
  PITFALLS_REQUIRE(value.is_number(),
                   "job field \"" + std::string(name) + "\" must be a number");
  const double number = value.number_value;
  PITFALLS_REQUIRE(number >= 0.0 && std::floor(number) == number,
                   "job field \"" + std::string(name) +
                       "\" must be a non-negative integer");
  PITFALLS_REQUIRE(number <= 9007199254740992.0,  // 2^53: exact in a double
                   "job field \"" + std::string(name) +
                       "\" exceeds the exactly-representable integer range");
  return static_cast<std::uint64_t>(number);
}

std::uint64_t u64_field(const obs::JsonValue& object, std::string_view name) {
  return as_u64(member(object, name), name);
}

std::uint64_t u64_or(const obs::JsonValue& object, std::string_view name,
                     std::uint64_t fallback) {
  const obs::JsonValue* value = object.find(name);
  return value == nullptr ? fallback : as_u64(*value, name);
}

double rate_or(const obs::JsonValue& object, std::string_view name,
               double fallback) {
  const obs::JsonValue* value = object.find(name);
  if (value == nullptr) return fallback;
  PITFALLS_REQUIRE(value->is_number(),
                   "policy field \"" + std::string(name) +
                       "\" must be a number");
  return value->number_value;
}

ml::robust::FaultConfig parse_policy(const obs::JsonValue& policy) {
  PITFALLS_REQUIRE(policy.is_object(), "job \"policy\" must be an object");
  ml::robust::FaultConfig faults;
  faults.flip_rate = rate_or(policy, "flip_rate", 0.0);
  faults.burst_rate = rate_or(policy, "burst_rate", 0.0);
  faults.burst_length = static_cast<std::size_t>(
      u64_or(policy, "burst_length", faults.burst_length));
  faults.metastable_sigma = rate_or(policy, "metastable_sigma", 0.0);
  faults.drop_rate = rate_or(policy, "drop_rate", 0.0);
  faults.query_budget = static_cast<std::size_t>(u64_or(
      policy, "query_budget", std::numeric_limits<std::size_t>::max()));
  // The fault layer's own range check: a spec is refused here exactly when
  // its channel could not be built at run time.
  ml::robust::validate(faults);
  return faults;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kAuth:
      return "auth";
    case JobKind::kAttack:
      return "attack";
    case JobKind::kQuery:
      return "query";
  }
  return "unknown";
}

JobSpec JobSpec::parse(const obs::JsonValue& request) {
  PITFALLS_REQUIRE(request.is_object(), "job request must be a JSON object");
  JobSpec spec;

  const obs::JsonValue& id = member(request, "id");
  PITFALLS_REQUIRE(id.is_string() && !id.string_value.empty(),
                   "job \"id\" must be a non-empty string");
  spec.id = id.string_value;

  const obs::JsonValue& kind = member(request, "kind");
  PITFALLS_REQUIRE(kind.is_string(), "job \"kind\" must be a string");
  if (kind.string_value == "auth") {
    spec.kind = JobKind::kAuth;
  } else if (kind.string_value == "attack") {
    spec.kind = JobKind::kAttack;
  } else if (kind.string_value == "query") {
    spec.kind = JobKind::kQuery;
  } else {
    PITFALLS_REQUIRE(false, "job \"kind\" must be auth, attack or query");
  }

  spec.token = u64_field(request, "token");
  spec.seed = u64_field(request, "seed");

  switch (spec.kind) {
    case JobKind::kAuth: {
      spec.rounds = static_cast<std::size_t>(u64_field(request, "rounds"));
      PITFALLS_REQUIRE(spec.rounds > 0, "auth job needs rounds > 0");
      break;
    }
    case JobKind::kAttack: {
      spec.budget = static_cast<std::size_t>(u64_field(request, "budget"));
      spec.eval = static_cast<std::size_t>(u64_field(request, "eval"));
      PITFALLS_REQUIRE(spec.budget > 0, "attack job needs budget > 0");
      PITFALLS_REQUIRE(spec.eval > 0, "attack job needs eval > 0");
      if (const obs::JsonValue* policy = request.find("policy"))
        spec.faults = parse_policy(*policy);
      if (const obs::JsonValue* session = request.find("session")) {
        PITFALLS_REQUIRE(session->is_string() &&
                             !session->string_value.empty(),
                         "job \"session\" must be a non-empty string");
        for (const char c : session->string_value)
          PITFALLS_REQUIRE(
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_',
              "job \"session\" must be alphanumeric with - or _ "
              "(it names a snapshot file)");
        spec.session = session->string_value;
      }
      break;
    }
    case JobKind::kQuery: {
      const obs::JsonValue& block = member(request, "challenges");
      PITFALLS_REQUIRE(block.is_array() && !block.items.empty(),
                       "query job needs a non-empty \"challenges\" array");
      spec.challenges.reserve(block.items.size());
      for (const obs::JsonValue& item : block.items) {
        PITFALLS_REQUIRE(item.is_string(),
                         "query challenges must be '0'/'1' strings");
        for (const char c : item.string_value)
          PITFALLS_REQUIRE(c == '0' || c == '1',
                           "query challenges must be '0'/'1' strings");
        PITFALLS_REQUIRE(!item.string_value.empty(),
                         "query challenges must be non-empty");
        spec.challenges.push_back(
            support::BitVec::from_string(item.string_value));
      }
      break;
    }
  }
  return spec;
}

std::string JobSpec::canonical() const {
  std::ostringstream out;
  out << "job/v1 id=" << id << " kind=" << to_string(kind)
      << " token=" << token << " seed=" << seed;
  switch (kind) {
    case JobKind::kAuth:
      out << " rounds=" << rounds;
      break;
    case JobKind::kAttack:
      out << " budget=" << budget << " eval=" << eval
          << " flip=" << faults.flip_rate << " burst=" << faults.burst_rate
          << "/" << faults.burst_length << " meta=" << faults.metastable_sigma
          << " drop=" << faults.drop_rate << " qb=" << faults.query_budget
          << " session=" << session;
      break;
    case JobKind::kQuery:
      out << " challenges=" << challenges.size();
      for (const support::BitVec& c : challenges) out << " " << c.to_string();
      break;
  }
  return out.str();
}

std::uint32_t JobSpec::fingerprint() const {
  return support::snapshot::crc32(canonical());
}

}  // namespace pitfalls::serve
