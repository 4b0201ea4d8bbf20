#include "serve/job.hpp"

#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "support/require.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::serve {

namespace {

using obs::JsonTokenizer;
using Token = JsonTokenizer::Token;

/// The first occurrence of one member of a request line.
struct Member {
  Token first = Token::kEnd;  // the value's first token; kEnd while absent
  double number = 0.0;        // kNumber
  std::string text;           // kString

  bool present() const { return first != Token::kEnd; }

  /// Keep the value whose first token was just read; consume its rest.
  void take(Token value, JsonTokenizer& tokens) {
    first = value;
    if (value == Token::kNumber) number = tokens.number();
    if (value == Token::kString) text.assign(tokens.text());
    tokens.skip(value);
  }
};

/// Maps a member name to its slot in `fields` (nullptr: a name the decode
/// does not use).
template <typename Fields, std::size_t N>
Member* slot_of(
    Fields& fields,
    const std::pair<std::string_view, Member Fields::*> (&names)[N],
    std::string_view name) {
  for (const auto& [known, slot] : names)
    if (known == name) return &(fields.*slot);
  return nullptr;
}

/// Reads the members of the object whose '{' was just read: the first
/// occurrence of each name `fields` uses goes to fields.take(), every other
/// member is grammar-checked and dropped.
template <typename Fields>
void read_object(JsonTokenizer& tokens, Fields& fields) {
  for (Token name = tokens.next(); name != Token::kEndObject;
       name = tokens.next()) {
    Member* slot = fields.find(tokens.text());
    const Token value = tokens.next();
    if (slot == nullptr || slot->present())
      tokens.skip(value);
    else
      fields.take(*slot, value, tokens);
  }
}

struct PolicyFields {
  Member flip_rate, burst_rate, burst_length, metastable_sigma, drop_rate,
      query_budget;

  Member* find(std::string_view name) {
    static constexpr std::pair<std::string_view, Member PolicyFields::*>
        kNames[] = {{"flip_rate", &PolicyFields::flip_rate},
                    {"burst_rate", &PolicyFields::burst_rate},
                    {"burst_length", &PolicyFields::burst_length},
                    {"metastable_sigma", &PolicyFields::metastable_sigma},
                    {"drop_rate", &PolicyFields::drop_rate},
                    {"query_budget", &PolicyFields::query_budget}};
    return slot_of(*this, kNames, name);
  }

  void take(Member& slot, Token value, JsonTokenizer& tokens) {
    slot.take(value, tokens);
  }
};

struct RequestFields {
  Member type, id, kind, token, seed, rounds, budget, eval, policy, session,
      challenges;
  PolicyFields policy_fields;        // when `policy` is an object
  std::vector<support::BitVec> bits;  // when `challenges` is an array
  bool challenges_ok = true;  // every item a non-empty '0'/'1' string

  Member* find(std::string_view name) {
    static constexpr std::pair<std::string_view, Member RequestFields::*>
        kNames[] = {{"type", &RequestFields::type},
                    {"id", &RequestFields::id},
                    {"kind", &RequestFields::kind},
                    {"token", &RequestFields::token},
                    {"seed", &RequestFields::seed},
                    {"rounds", &RequestFields::rounds},
                    {"budget", &RequestFields::budget},
                    {"eval", &RequestFields::eval},
                    {"policy", &RequestFields::policy},
                    {"session", &RequestFields::session},
                    {"challenges", &RequestFields::challenges}};
    return slot_of(*this, kNames, name);
  }

  void take(Member& slot, Token value, JsonTokenizer& tokens) {
    if (&slot == &policy && value == Token::kBeginObject) {
      slot.first = value;
      read_object(tokens, policy_fields);
    } else if (&slot == &challenges && value == Token::kBeginArray) {
      slot.first = value;
      read_challenges(tokens);
    } else {
      slot.take(value, tokens);
    }
  }

  /// The items of the array whose '[' was just read, each string packed
  /// straight into a BitVec.
  void read_challenges(JsonTokenizer& tokens) {
    for (Token item = tokens.next(); item != Token::kEndArray;
         item = tokens.next()) {
      if (item != Token::kString) {
        challenges_ok = false;
        tokens.skip(item);
        continue;
      }
      if (!challenges_ok) continue;
      std::optional<support::BitVec> challenge =
          support::BitVec::try_from_string(tokens.text());
      if (challenge.has_value() && !challenge->empty())
        bits.push_back(std::move(*challenge));
      else
        challenges_ok = false;
    }
  }
};

const Member& required(const Member& value, std::string_view name) {
  PITFALLS_REQUIRE_INPUT(value.present(), "job request is missing the \"" +
                                              std::string(name) + "\" field");
  return value;
}

std::uint64_t as_u64(const Member& value, std::string_view name) {
  PITFALLS_REQUIRE_INPUT(
      value.first == Token::kNumber,
      "job field \"" + std::string(name) + "\" must be a number");
  const double number = value.number;
  PITFALLS_REQUIRE_INPUT(number >= 0.0 && std::floor(number) == number,
                         "job field \"" + std::string(name) +
                             "\" must be a non-negative integer");
  PITFALLS_REQUIRE_INPUT(
      number <= 9007199254740992.0,  // 2^53: exact in a double
      "job field \"" + std::string(name) +
          "\" exceeds the exactly-representable integer range");
  return static_cast<std::uint64_t>(number);
}

std::uint64_t u64_field(const Member& value, std::string_view name) {
  return as_u64(required(value, name), name);
}

/// A required work field, refused past its per-job cap.
std::size_t capped_field(const Member& value, std::string_view name,
                         std::size_t cap) {
  const std::uint64_t number = u64_field(value, name);
  PITFALLS_REQUIRE_INPUT(number <= cap, "job field \"" + std::string(name) +
                                            "\" exceeds its cap of " +
                                            std::to_string(cap));
  return static_cast<std::size_t>(number);
}

std::uint64_t u64_or(const Member& value, std::string_view name,
                     std::uint64_t fallback) {
  return value.present() ? as_u64(value, name) : fallback;
}

double rate_or(const Member& value, std::string_view name, double fallback) {
  if (!value.present()) return fallback;
  PITFALLS_REQUIRE_INPUT(value.first == Token::kNumber,
                         "policy field \"" + std::string(name) +
                             "\" must be a number");
  return value.number;
}

ml::robust::FaultConfig parse_policy(const PolicyFields& policy) {
  ml::robust::FaultConfig faults;
  faults.flip_rate = rate_or(policy.flip_rate, "flip_rate", 0.0);
  faults.burst_rate = rate_or(policy.burst_rate, "burst_rate", 0.0);
  faults.burst_length = static_cast<std::size_t>(
      u64_or(policy.burst_length, "burst_length", faults.burst_length));
  faults.metastable_sigma =
      rate_or(policy.metastable_sigma, "metastable_sigma", 0.0);
  faults.drop_rate = rate_or(policy.drop_rate, "drop_rate", 0.0);
  faults.query_budget = static_cast<std::size_t>(
      u64_or(policy.query_budget, "query_budget",
             std::numeric_limits<std::size_t>::max()));
  // The fault layer's own range check: a spec is refused here exactly when
  // its channel could not be built at run time.
  ml::robust::validate(faults);
  return faults;
}

/// The spec of a "job" request whose whole line has already passed the
/// grammar. Throws std::invalid_argument on any missing, ill-typed or
/// out-of-range field.
JobSpec job_spec(RequestFields& fields) {
  JobSpec spec;

  const Member& id = required(fields.id, "id");
  PITFALLS_REQUIRE_INPUT(id.first == Token::kString && !id.text.empty(),
                         "job \"id\" must be a non-empty string");
  spec.id = id.text;

  const Member& kind = required(fields.kind, "kind");
  PITFALLS_REQUIRE_INPUT(kind.first == Token::kString,
                         "job \"kind\" must be a string");
  if (kind.text == "auth") {
    spec.kind = JobKind::kAuth;
  } else if (kind.text == "attack") {
    spec.kind = JobKind::kAttack;
  } else if (kind.text == "query") {
    spec.kind = JobKind::kQuery;
  } else {
    support::input_refused("job \"kind\" must be auth, attack or query");
  }

  spec.token = u64_field(fields.token, "token");
  spec.seed = u64_field(fields.seed, "seed");

  switch (spec.kind) {
    case JobKind::kAuth: {
      spec.rounds = capped_field(fields.rounds, "rounds", kMaxAuthRounds);
      PITFALLS_REQUIRE_INPUT(spec.rounds > 0, "auth job needs rounds > 0");
      break;
    }
    case JobKind::kAttack: {
      spec.budget = capped_field(fields.budget, "budget", kMaxAttackBudget);
      spec.eval = capped_field(fields.eval, "eval", kMaxAttackEval);
      PITFALLS_REQUIRE_INPUT(spec.budget > 0, "attack job needs budget > 0");
      PITFALLS_REQUIRE_INPUT(spec.eval > 0, "attack job needs eval > 0");
      if (fields.policy.present()) {
        PITFALLS_REQUIRE_INPUT(fields.policy.first == Token::kBeginObject,
                               "job \"policy\" must be an object");
        spec.faults = parse_policy(fields.policy_fields);
      }
      if (const Member& session = fields.session; session.present()) {
        PITFALLS_REQUIRE_INPUT(
            session.first == Token::kString && !session.text.empty(),
            "job \"session\" must be a non-empty string");
        for (const char c : session.text)
          PITFALLS_REQUIRE_INPUT(
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_',
              "job \"session\" must be alphanumeric with - or _ "
              "(it names a snapshot file)");
        spec.session = session.text;
      }
      break;
    }
    case JobKind::kQuery: {
      const Member& block = required(fields.challenges, "challenges");
      PITFALLS_REQUIRE_INPUT(
          block.first == Token::kBeginArray,
          "query job needs a non-empty \"challenges\" array");
      PITFALLS_REQUIRE_INPUT(
          fields.challenges_ok,
          "query challenges must be non-empty '0'/'1' strings");
      PITFALLS_REQUIRE_INPUT(
          !fields.bits.empty(),
          "query job needs a non-empty \"challenges\" array");
      spec.challenges = std::move(fields.bits);
      break;
    }
  }
  return spec;
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

WireRequest decode_request(std::string_view line) {
  JsonTokenizer tokens(line);
  RequestFields fields;
  const Token root = tokens.next();
  if (root == Token::kBeginObject)
    read_object(tokens, fields);
  else
    tokens.skip(root);
  tokens.next();  // kEnd, or the trailing-garbage error
  if (root != Token::kBeginObject || fields.type.first != Token::kString)
    throw std::runtime_error("request must be an object with a \"type\"");

  WireRequest request;
  request.type = std::move(fields.type.text);
  if (request.type != "job") return request;
  try {
    request.job = job_spec(fields);
  } catch (const std::exception& error) {
    request.refusal = error.what();
  }
  return request;
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
