// Job specifications for the attack-service plane — DESIGN.md §16.
//
// A job is one unit of verifier- or adversary-side work against one fleet
// token, submitted as a single JSON object on the wire (serve/wire.hpp) and
// executed by the scheduler (serve/scheduler.hpp). Three kinds:
//
//   * auth   — `rounds` lockdown-style authentication rounds (§ lockdown.hpp
//              protocol shape: half the challenge from the verifier nonce,
//              half from the token nonce; no chosen challenges).
//   * attack — a modeling attack: collect `budget` uniform-challenge CRPs
//              through the job's fault channel with ml::robust's budgeted
//              collection loop, fit a logistic model in the parity
//              representation, score it on `eval` fresh CRPs.
//   * query  — raw chosen-challenge evaluation of an explicit challenge
//              block (the §11 batch plane on the wire).
//
// Every outcome is a pure function of (fleet config, spec) — the spec
// carries its own `seed`, so two submissions of the same spec produce
// byte-identical output blocks at any PITFALLS_THREADS. canonical() renders
// the spec into a normal form whose crc32 (`fingerprint()`) guards journal
// resume: a journaled outcome is only served back when the resubmitted spec
// fingerprints identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ml/robust/faults.hpp"
#include "support/bitvec.hpp"

namespace pitfalls::serve {

enum class JobKind { kAuth, kAttack, kQuery };

const char* to_string(JobKind kind);

/// Per-job work caps, checked at decode: a job over one is refused with a
/// spec error, so no job runs or reserves more than this. Each is at least
/// 4x the largest value any in-repo client sends.
inline constexpr std::size_t kMaxAuthRounds = std::size_t{1} << 20;
inline constexpr std::size_t kMaxAttackBudget = std::size_t{1} << 16;
inline constexpr std::size_t kMaxAttackEval = std::size_t{1} << 16;

struct JobSpec {
  std::string id;
  JobKind kind = JobKind::kQuery;
  /// Target token within the fleet population.
  std::uint64_t token = 0;
  /// Root of the job's private RNG stream (challenge/nonce draws).
  std::uint64_t seed = 0;

  // auth
  std::size_t rounds = 0;  // at most kMaxAuthRounds

  // attack
  std::size_t budget = 0;  // training CRPs to collect, <= kMaxAttackBudget
  std::size_t eval = 0;    // fresh CRPs scored on, <= kMaxAttackEval
  /// Per-job oracle policy: the §9 fault channel between the attacker and
  /// the token (eta, bursts, drops, lifetime query budget). decode_request()
  /// refuses any config ml::robust::validate refuses.
  ml::robust::FaultConfig faults;
  /// Non-empty: journal what the token answered into a named per-job
  /// session, so a later job can continue a lockdown-tripped attack under
  /// its own policy (replayed answers charge nothing — DESIGN.md §16).
  std::string session;

  // query
  std::vector<support::BitVec> challenges;

  /// Normal-form rendering of every outcome-relevant field (formatting of
  /// the original request does not matter).
  std::string canonical() const;

  /// crc32(canonical()) — the resume guard for journaled outcomes.
  std::uint32_t fingerprint() const;
};

/// One request line of the wire, as decode_request() read it.
struct WireRequest {
  /// The request's "type" member ("job", "run", "drain" or anything else).
  std::string type;
  /// Type "job" only: the spec, meaningful when `refusal` is empty.
  JobSpec job;
  /// Type "job" only: why the spec was refused (a missing, ill-typed or
  /// out-of-range field, a work field over its cap, or a fault policy
  /// ml::robust::validate refuses).
  std::string refusal;
};

/// Decode one request line in a single pass over its text, with no DOM.
/// Throws std::runtime_error when the line is not one JSON object with a
/// string "type" member; a grammar error anywhere in the line counts as
/// that, so it beats any field error. The first of duplicate members wins;
/// unknown members, and members the type or kind does not use, are skipped
/// after their grammar is checked. Query challenges are packed straight
/// into BitVec words, eight characters per step.
WireRequest decode_request(std::string_view line);

}  // namespace pitfalls::serve
