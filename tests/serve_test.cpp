// Tests for the attack-service plane (DESIGN.md §16): wire-stream
// byte-stability across PITFALLS_THREADS, token-fleet LRU eviction and
// re-materialization determinism, malformed-request rejection, cooperative
// termination drain, journaled-outcome resume, and the budget-refill
// continuation contract (replayed queries charge nothing).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/scheduler.hpp"
#include "serve/token_fleet.hpp"
#include "serve/wire.hpp"
#include "store/checkpoint.hpp"
#include "support/bitvec.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace pitfalls;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// Restore the worker-pool size on exit (parallel_test idiom).
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(support::pool_thread_count()) {}
  ~PoolSizeGuard() { support::set_pool_thread_count(saved_); }

 private:
  std::size_t saved_;
};

// Always leave the cooperative-termination flag clear, even on test failure.
struct TerminationGuard {
  TerminationGuard() { store::clear_termination(); }
  ~TerminationGuard() { store::clear_termination(); }
};

// Scratch daemon checkpoint removed (with its .tmp and any per-job session
// files) when the test exits.
class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& name,
                          std::vector<std::string> sessions = {})
      : path_("serve_test_" + name + ".snap"), sessions_(std::move(sessions)) {
    remove_all();
  }
  ~TempCheckpoint() { remove_all(); }
  const std::string& path() const { return path_; }

 private:
  void remove_all() {
    const auto drop = [](const std::string& p) {
      std::remove(p.c_str());
      std::remove((p + ".tmp").c_str());
    };
    drop(path_);
    for (const std::string& s : sessions_) drop(path_ + ".sess-" + s + ".snap");
  }

  std::string path_;
  std::vector<std::string> sessions_;
};

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// A small (32-stage) fleet: materialization stays cheap while the token-id
// space keeps the full million-instance population.
serve::TokenFleetConfig small_fleet() {
  serve::TokenFleetConfig config;
  config.seed = 42;
  config.tokens = 1'000'000;
  config.spec.stages = 32;
  config.spec.chains = 2;
  config.spec.noise_sigma = 0.0;
  config.resident_limit = 64;
  config.shards = 8;
  return config;
}

BitVec make_bitvec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.coin());
  return v;
}

std::string challenge_string(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string text(n, '0');
  for (std::size_t i = 0; i < n; ++i)
    if (rng.coin()) text[i] = '1';
  return text;
}

// ------------------------------------------------------- request builders

std::string auth_job(const std::string& id, std::uint64_t token,
                     std::uint64_t seed, std::uint64_t rounds) {
  return "{\"type\":\"job\",\"id\":\"" + id + "\",\"kind\":\"auth\",\"token\":" +
         std::to_string(token) + ",\"seed\":" + std::to_string(seed) +
         ",\"rounds\":" + std::to_string(rounds) + "}";
}

/// `extra` is a raw JSON tail (",\"policy\":{...}" / ",\"session\":\"s\"").
std::string attack_job(const std::string& id, std::uint64_t token,
                       std::uint64_t seed, std::uint64_t budget,
                       std::uint64_t eval, const std::string& extra) {
  return "{\"type\":\"job\",\"id\":\"" + id +
         "\",\"kind\":\"attack\",\"token\":" + std::to_string(token) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"budget\":" + std::to_string(budget) +
         ",\"eval\":" + std::to_string(eval) + extra + "}";
}

std::string query_job(const std::string& id, std::uint64_t token,
                      std::uint64_t seed,
                      const std::vector<std::string>& challenges) {
  std::string line = "{\"type\":\"job\",\"id\":\"" + id +
                     "\",\"kind\":\"query\",\"token\":" +
                     std::to_string(token) +
                     ",\"seed\":" + std::to_string(seed) + ",\"challenges\":[";
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    if (i != 0) line += ",";
    line += "\"" + challenges[i] + "\"";
  }
  return line + "]}";
}

const std::string kRun = R"({"type":"run"})";
const std::string kDrain = R"({"type":"drain"})";

// ------------------------------------------------------------ run helpers

struct ServeRun {
  int status = 0;
  std::vector<std::string> lines;
  std::string joined;
};

ServeRun run_daemon(const serve::DaemonConfig& config,
                    std::vector<std::string> input) {
  serve::Daemon daemon(config);
  serve::MemoryChannel channel(std::move(input));
  ServeRun run;
  run.status = daemon.serve(channel);
  run.lines = channel.output();
  run.joined = channel.joined_output();
  return run;
}

std::string type_of(const obs::JsonValue& doc) {
  const obs::JsonValue* type = doc.find("type");
  return type != nullptr && type->is_string() ? type->string_value : "";
}

std::size_t count_type(const std::vector<std::string>& lines,
                       std::string_view type) {
  std::size_t count = 0;
  for (const std::string& line : lines)
    if (type_of(obs::JsonValue::parse(line)) == type) ++count;
  return count;
}

/// First output line with this wire type and job id ("" when absent).
std::string find_line(const std::vector<std::string>& lines,
                      std::string_view type, std::string_view id) {
  for (const std::string& line : lines) {
    const obs::JsonValue doc = obs::JsonValue::parse(line);
    if (type_of(doc) != type) continue;
    const obs::JsonValue* field = doc.find("id");
    if (field != nullptr && field->is_string() && field->string_value == id)
      return line;
  }
  return {};
}

std::uint64_t u64_of(const std::string& line, const char* name) {
  const obs::JsonValue doc = obs::JsonValue::parse(line);
  const obs::JsonValue* value = doc.find(name);
  if (value == nullptr || !value->is_number()) {
    ADD_FAILURE() << "no numeric \"" << name << "\" in: " << line;
    return 0;
  }
  return static_cast<std::uint64_t>(value->number_value);
}

std::string str_of(const std::string& line, const char* name) {
  const obs::JsonValue doc = obs::JsonValue::parse(line);
  const obs::JsonValue* value = doc.find(name);
  if (value == nullptr || !value->is_string()) {
    ADD_FAILURE() << "no string \"" << name << "\" in: " << line;
    return {};
  }
  return value->string_value;
}

// A LineChannel that raises the cooperative-termination flag after serving
// its N-th input line — the in-process stand-in for SIGTERM arriving while
// the daemon is mid-protocol.
class TerminatingChannel final : public serve::LineChannel {
 public:
  TerminatingChannel(std::vector<std::string> input, std::size_t request_after)
      : inner_(std::move(input)), request_after_(request_after) {}

  bool read_line(std::string& line) override {
    const bool ok = inner_.read_line(line);
    if (ok && ++reads_ == request_after_) store::request_termination();
    return ok;
  }
  void write_line(std::string_view line) override { inner_.write_line(line); }

  const std::vector<std::string>& output() const { return inner_.output(); }

 private:
  serve::MemoryChannel inner_;
  std::size_t request_after_;
  std::size_t reads_ = 0;
};

// ----------------------------------------------------------- token fleet

TEST(TokenFleet, EvictionRematerializesIdenticalModels) {
  serve::TokenFleetConfig config = small_fleet();
  config.resident_limit = 8;
  config.shards = 2;
  serve::TokenFleet fleet(config);
  EXPECT_NE(fleet.fingerprint().find("fleet/v1"), std::string::npos);
  EXPECT_NE(fleet.fingerprint().find("seed=42"), std::string::npos);

  const auto first = fleet.acquire(1);
  std::vector<BitVec> probes;
  std::vector<int> expected;
  for (std::uint64_t i = 0; i < 6; ++i) {
    probes.push_back(make_bitvec(32, 100 + i));
    expected.push_back(first->eval_pm(probes.back()));
  }

  // Sweep enough other tokens through both shards to evict token 1.
  const std::uint64_t evictions_before = counter_value("serve.fleet.evictions");
  for (std::uint64_t token = 2; token <= 100; ++token) fleet.acquire(token);
  EXPECT_LE(fleet.resident(), 8u);
  EXPECT_GT(counter_value("serve.fleet.evictions"), evictions_before);

  // Materialization is pure: the re-materialized model answers identically,
  // and the pre-eviction handle stays alive and consistent.
  const auto again = fleet.acquire(1);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(again->eval_pm(probes[i]), expected[i]) << "probe " << i;
    EXPECT_EQ(first->eval_pm(probes[i]), expected[i]) << "probe " << i;
  }
}

// ------------------------------------------------------- byte stability

TEST(ServeDaemon, OutputStreamIsByteStableAcrossThreadCounts) {
  PoolSizeGuard guard;
  const std::vector<std::string> input = {
      auth_job("a1", 999983, 7, 12),
      attack_job("x1", 12, 3, 40, 60,
                 R"(,"policy":{"flip_rate":0.05,"drop_rate":0.02})"),
      query_job("q1", 5, 1,
                {challenge_string(32, 61), challenge_string(32, 62)}),
      kRun,
      auth_job("a2", 31337, 9, 8),
      attack_job("x2", 77, 4, 30, 40, ""),
      kDrain,
  };

  serve::DaemonConfig config;
  config.fleet = small_fleet();

  support::set_pool_thread_count(1);
  const ServeRun reference = run_daemon(config, input);
  ASSERT_EQ(reference.status, 0);
  ASSERT_FALSE(reference.lines.empty());
  EXPECT_EQ(type_of(obs::JsonValue::parse(reference.lines.front())), "hello");
  EXPECT_EQ(type_of(obs::JsonValue::parse(reference.lines.back())), "drained");
  EXPECT_EQ(count_type(reference.lines, "outcome"), 5u);
  EXPECT_EQ(count_type(reference.lines, "error"), 0u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    support::set_pool_thread_count(threads);
    const ServeRun run = run_daemon(config, input);
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.joined, reference.joined) << "threads=" << threads;
  }
}

// ------------------------------------------------- auth byte identity

// The scheduler's per-round auth loop from before rounds ran in 64-round
// blocks on the bit-sliced kernel, kept verbatim as the reference, with the
// scheduler's private helpers and job-stream salt copied alongside.
constexpr std::uint64_t kJobStreamSalt = 0x6a6f622d73747265ULL;  // "job-stre"

support::BitVec draw_challenge(std::size_t n, support::Rng& rng) {
  support::BitVec challenge(n);
  for (std::size_t i = 0; i < n; ++i) challenge.set(i, rng.coin());
  return challenge;
}

std::string pm_string(const std::vector<int>& responses) {
  std::string text;
  text.reserve(responses.size());
  for (const int r : responses) text.push_back(r < 0 ? '-' : '+');
  return text;
}

struct AuthOutcome {
  std::uint64_t rounds = 0;
  std::uint64_t accepted = 0;
  std::string digest;
};

AuthOutcome reference_auth(serve::TokenFleet& fleet,
                           const serve::JobSpec& spec) {
  const auto model = fleet.acquire(spec.token);
  const std::size_t n = model->num_vars();
  support::Rng rng = support::rng_for_chunk(
      fleet.config().seed ^ kJobStreamSalt, spec.seed);
  std::vector<int> measured(spec.rounds);
  std::size_t accepted = 0;
  for (std::size_t round = 0; round < spec.rounds; ++round) {
    const support::BitVec challenge = draw_challenge(n, rng);
    const int response = fleet.config().spec.noise_sigma > 0.0
                             ? model->eval_noisy(challenge, rng)
                             : model->eval_pm(challenge);
    measured[round] = response;
    if (response == model->eval_pm(challenge)) ++accepted;
  }
  const std::string block = pm_string(measured);
  char digest[9];
  std::snprintf(digest, sizeof digest, "%08x",
                static_cast<unsigned>(support::snapshot::crc32(block)));
  return {spec.rounds, accepted, digest};
}

// Rounds straddling the 64-round block edges, multi-block jobs, both noise
// paths, one- and two-word challenges (100 stages pads the second word) and
// one or three chains: every auth outcome equals the per-round loop's, from
// run_job and from waves on a contended pool.
TEST(JobScheduler, AuthBlocksMatchThePerRoundLoop) {
  PoolSizeGuard guard;
  const std::vector<std::size_t> rounds = {1, 63, 64, 65, 1000, 4097};
  for (const std::size_t stages : {64u, 100u}) {
    for (const std::size_t chains : {1u, 3u}) {
      for (const double sigma : {0.0, 0.3}) {
        const std::string cell = "stages=" + std::to_string(stages) +
                                 " chains=" + std::to_string(chains) +
                                 " sigma=" + std::to_string(sigma);
        serve::TokenFleetConfig config = small_fleet();
        config.spec.stages = stages;
        config.spec.chains = chains;
        config.spec.noise_sigma = sigma;
        serve::TokenFleet fleet(config);
        const serve::JobScheduler scheduler(fleet, "");

        std::vector<serve::JobSpec> specs;
        for (std::size_t i = 0; i < rounds.size(); ++i) {
          serve::JobSpec spec;
          spec.id = "a" + std::to_string(i);
          spec.kind = serve::JobKind::kAuth;
          spec.token = 1000 + 7919 * i;
          spec.seed = 31 + i;
          spec.rounds = rounds[i];
          specs.push_back(spec);
        }

        support::set_pool_thread_count(1);
        std::vector<serve::JobResult> serial;
        for (const serve::JobSpec& spec : specs) {
          serial.push_back(scheduler.run_job(spec));
          const serve::JobResult& result = serial.back();
          ASSERT_TRUE(result.ok) << cell;
          ASSERT_EQ(result.lines.size(), 2u) << cell;
          const std::string& outcome = result.lines[1];
          const AuthOutcome expected = reference_auth(fleet, spec);
          const std::string where =
              cell + " rounds=" + std::to_string(spec.rounds);
          EXPECT_EQ(u64_of(outcome, "rounds"), expected.rounds) << where;
          EXPECT_EQ(u64_of(outcome, "accepted"), expected.accepted) << where;
          EXPECT_EQ(str_of(outcome, "digest"), expected.digest) << where;
          if (sigma > 0.0 && spec.rounds >= 1000) {
            EXPECT_LT(expected.accepted, expected.rounds) << where;
          }
        }

        for (const std::size_t threads : {2u, 4u, 8u}) {
          support::set_pool_thread_count(threads);
          std::vector<serve::JobResult> wave(specs.size());
          scheduler.run_wave(specs, std::vector<char>(specs.size(), 0), wave);
          for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(wave[i].lines, serial[i].lines)
                << cell << " threads=" << threads << " job " << i;
        }
      }
    }
  }
}

// --------------------------------------------------- malformed requests

TEST(ServeDaemon, MalformedRequestsAreRejectedWithErrorLines) {
  const std::vector<std::string> input = {
      "this is not json",
      R"({"nope":1})",
      R"({"type":"frobnicate"})",
      R"({"type":"job"})",
      R"({"type":"job","id":"b1","kind":"dance","token":1,"seed":1})",
      auth_job("ok1", 3, 5, 4),
      auth_job("ok1", 3, 5, 4),           // duplicate id
      auth_job("b2", 1'000'000, 5, 4),    // token == population
      attack_job("b3", 1, 1, 8, 8, R"(,"session":"s1")"),  // no checkpoint
      query_job("b4", 1, 1, {"01x"}),     // bad challenge alphabet
      // Policies the fault layer cannot model are refused at submission.
      attack_job("b5", 1, 1, 8, 8, R"(,"policy":{"flip_rate":0.5})"),
      attack_job("b6", 1, 1, 8, 8, R"(,"policy":{"drop_rate":1})"),
      attack_job("b7", 1, 1, 8, 8, R"(,"policy":{"burst_length":0})"),
      query_job("q_short", 1, 1, {"0101"}),  // wrong arity: fails at run
      kDrain,
  };

  serve::DaemonConfig config;
  config.fleet = small_fleet();
  const ServeRun run = run_daemon(config, input);
  EXPECT_EQ(run.status, 0);
  ASSERT_FALSE(run.lines.empty());
  EXPECT_EQ(type_of(obs::JsonValue::parse(run.lines.front())), "hello");
  EXPECT_EQ(type_of(obs::JsonValue::parse(run.lines.back())), "drained");

  // Twelve rejected submissions plus the arity failure caught at run time.
  EXPECT_EQ(count_type(run.lines, "error"), 13u);
  EXPECT_EQ(count_type(run.lines, "ack"), 2u);
  EXPECT_EQ(count_type(run.lines, "outcome"), 1u);
  EXPECT_FALSE(find_line(run.lines, "outcome", "ok1").empty());
  const std::string arity_error = find_line(run.lines, "error", "q_short");
  ASSERT_FALSE(arity_error.empty());
  EXPECT_NE(str_of(arity_error, "message").find("arity"), std::string::npos);
  // Submission errors carry a null id, so match the fault layer's messages.
  for (const char* id : {"b5", "b6", "b7"})
    EXPECT_TRUE(find_line(run.lines, "ack", id).empty()) << id;
  for (const char* check : {"flip rate", "drop rate", "burst length"})
    EXPECT_NE(run.joined.find(check), std::string::npos) << check;
  EXPECT_EQ(u64_of(run.lines.back(), "jobs"), 2u);
}

// ---------------------------------------------- termination and resume

TEST(ServeDaemon, TerminationDrainFlushesJournalAndResumeReplaysOutcomes) {
  TerminationGuard termination;
  TempCheckpoint file("term");
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();

  const std::string a1 = attack_job("a1", 12, 3, 30, 40, "");
  const std::string q1 = query_job("q1", 5, 1, {challenge_string(32, 9)});
  const std::string a2 = auth_job("a2", 44, 2, 6);

  // The flag goes up as the "run" line (3rd read) is served: the daemon
  // finishes the wave it was asked to run, then drains with status 143
  // without touching the rest of the input.
  ServeRun first;
  {
    serve::Daemon daemon(config);
    TerminatingChannel channel({a1, q1, kRun, a2, kDrain}, 3);
    first.status = daemon.serve(channel);
    first.lines = channel.output();
  }
  EXPECT_EQ(first.status, 143);
  ASSERT_FALSE(first.lines.empty());
  const obs::JsonValue last = obs::JsonValue::parse(first.lines.back());
  EXPECT_EQ(type_of(last), "drained");
  const obs::JsonValue* terminated = last.find("terminated");
  ASSERT_NE(terminated, nullptr);
  EXPECT_TRUE(terminated->is_bool() && terminated->bool_value);
  const std::string outcome_a1 = find_line(first.lines, "outcome", "a1");
  const std::string outcome_q1 = find_line(first.lines, "outcome", "q1");
  ASSERT_FALSE(outcome_a1.empty());
  ASSERT_FALSE(outcome_q1.empty());
  EXPECT_TRUE(find_line(first.lines, "ack", "a2").empty());

  // Resume: the journaled jobs come back byte-identical without
  // re-executing, the never-started job runs fresh.
  store::clear_termination();
  config.resume = true;
  const ServeRun resumed = run_daemon(config, {a1, q1, a2, kDrain});
  EXPECT_EQ(resumed.status, 0);
  EXPECT_FALSE(find_line(resumed.lines, "resumed", "a1").empty());
  EXPECT_FALSE(find_line(resumed.lines, "resumed", "q1").empty());
  EXPECT_TRUE(find_line(resumed.lines, "resumed", "a2").empty());
  EXPECT_EQ(find_line(resumed.lines, "outcome", "a1"), outcome_a1);
  EXPECT_EQ(find_line(resumed.lines, "outcome", "q1"), outcome_q1);
  EXPECT_FALSE(find_line(resumed.lines, "outcome", "a2").empty());
}

TEST(ServeDaemon, ResumeRefusesMismatchedSpecFingerprint) {
  TempCheckpoint file("mismatch");
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();

  const ServeRun first = run_daemon(config, {auth_job("a1", 5, 1, 8), kDrain});
  ASSERT_EQ(first.status, 0);
  ASSERT_FALSE(find_line(first.lines, "outcome", "a1").empty());

  // Same id, different seed: serving the journaled outcome would silently
  // attribute another spec's result, so the submission is refused.
  config.resume = true;
  const ServeRun second =
      run_daemon(config, {auth_job("a1", 5, 2, 8), kDrain});
  EXPECT_EQ(second.status, 0);
  const std::string error = find_line(second.lines, "error", "a1");
  ASSERT_FALSE(error.empty());
  EXPECT_NE(str_of(error, "message").find("different spec"),
            std::string::npos);
  EXPECT_TRUE(find_line(second.lines, "ack", "a1").empty());
  EXPECT_TRUE(find_line(second.lines, "outcome", "a1").empty());
  EXPECT_TRUE(find_line(second.lines, "resumed", "a1").empty());
}

TEST(ServeDaemon, ResumeWithoutCheckpointIsRejected) {
  // With no journal to read, --resume would silently re-execute every job
  // and refuse "session" jobs; the daemon refuses to start instead.
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.resume = true;
  try {
    serve::Daemon daemon(config);
    ADD_FAILURE() << "--resume without --checkpoint was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--checkpoint"),
              std::string::npos);
  }
}

// ------------------------------------------- budget-refill continuation

// Satellite regression (ROADMAP item 5 / DESIGN.md §16): a lockdown-tripped
// attack session continued with a refilled budget replays its recorded
// prefix for free — the continuation charges the physical-query counter
// exactly as much as the original lockdown leg did, and its outcome is
// byte-identical to an uninterrupted run with the larger budget.
TEST(ServeDaemon, BudgetRefillContinuationChargesNothingForReplayedQueries) {
  TempCheckpoint file("refill", {"L1"});
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();

  // Leg 1: budget 120 wanted, lifetime query budget 60 — lockdown halfway.
  const std::uint64_t before_locked = counter_value("oracle.membership_queries");
  const ServeRun locked = run_daemon(
      config,
      {attack_job("L1a", 7, 11, 120, 80,
                  R"(,"policy":{"flip_rate":0.03,"query_budget":60},)"
                  R"("session":"L1")"),
       kDrain});
  const std::uint64_t charged_locked =
      counter_value("oracle.membership_queries") - before_locked;
  ASSERT_EQ(locked.status, 0);
  const std::string locked_outcome = find_line(locked.lines, "outcome", "L1a");
  ASSERT_FALSE(locked_outcome.empty());
  EXPECT_EQ(str_of(locked_outcome, "status"), "lockdown");
  EXPECT_EQ(u64_of(locked_outcome, "collected"), 60u);
  EXPECT_EQ(u64_of(locked_outcome, "queries"), 60u);

  // Leg 2: same session and seed, refilled query budget. The 60 recorded
  // queries replay without charging; only the 60 new ones are physical.
  config.resume = true;
  const std::uint64_t before_refill = counter_value("oracle.membership_queries");
  const ServeRun refilled = run_daemon(
      config,
      {attack_job("L1b", 7, 11, 120, 80,
                  R"(,"policy":{"flip_rate":0.03,"query_budget":300},)"
                  R"("session":"L1")"),
       kDrain});
  const std::uint64_t charged_refill =
      counter_value("oracle.membership_queries") - before_refill;
  ASSERT_EQ(refilled.status, 0);
  const std::string obs_line = find_line(refilled.lines, "obs", "L1b");
  ASSERT_FALSE(obs_line.empty());
  EXPECT_EQ(u64_of(obs_line, "queries"), 120u);
  EXPECT_EQ(u64_of(obs_line, "replayed"), 60u);
  EXPECT_EQ(charged_refill, charged_locked)
      << "replayed queries must not hit the physical counter";

  // Reference: the same spec run uninterrupted, no session, no checkpoint.
  // The continuation outcome line must be byte-identical.
  serve::DaemonConfig fresh_config;
  fresh_config.fleet = small_fleet();
  const std::uint64_t before_fresh = counter_value("oracle.membership_queries");
  const ServeRun fresh = run_daemon(
      fresh_config,
      {attack_job("L1b", 7, 11, 120, 80,
                  R"(,"policy":{"flip_rate":0.03,"query_budget":300})"),
       kDrain});
  const std::uint64_t charged_fresh =
      counter_value("oracle.membership_queries") - before_fresh;
  ASSERT_EQ(fresh.status, 0);
  const std::string fresh_outcome = find_line(fresh.lines, "outcome", "L1b");
  const std::string refill_outcome = find_line(refilled.lines, "outcome", "L1b");
  ASSERT_FALSE(fresh_outcome.empty());
  EXPECT_EQ(refill_outcome, fresh_outcome);
  EXPECT_EQ(str_of(fresh_outcome, "status"), "modeled");
  EXPECT_EQ(u64_of(fresh_outcome, "collected"), 120u);
  EXPECT_GT(charged_fresh, charged_refill)
      << "the uninterrupted run pays for all 120 queries";
}

}  // namespace
