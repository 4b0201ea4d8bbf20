// Tests for the attack-service plane (DESIGN.md §16): wire-stream
// byte-stability across PITFALLS_THREADS, token-fleet LRU eviction and
// re-materialization determinism, malformed-request rejection, cooperative
// termination drain, journaled-outcome resume from the one-section job
// journal, the continuation contract (replayed queries charge nothing, and
// a continued session gives the outcome of its own spec), million-deep request lines, per-job work caps,
// location-free refusal messages, fleets refused at construction, and the
// one-pass wire decode against the DOM path it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/robust/faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "puf/token.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/token_fleet.hpp"
#include "serve/wire.hpp"
#include "store/checkpoint.hpp"
#include "support/bitvec.hpp"
#include "support/parallel.hpp"
#include "support/require.hpp"
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

// A fleet whose tokens could not be materialized is refused when it is
// built, so the daemon exits before its hello instead of acking jobs that
// all fail at run time.
TEST(TokenFleet, RefusesASpecItCannotServe) {
  const auto with = [](auto edit) {
    serve::TokenFleetConfig config = small_fleet();
    edit(config.spec);
    return config;
  };
  const std::vector<serve::TokenFleetConfig> refused = {
      with([](puf::TokenSpec& spec) { spec.stages = 0; }),
      with([](puf::TokenSpec& spec) { spec.chains = 0; }),
      with([](puf::TokenSpec& spec) { spec.noise_sigma = -1.0; }),
      with([](puf::TokenSpec& spec) {
        spec.noise_sigma = std::numeric_limits<double>::quiet_NaN();
      }),
      with([](puf::TokenSpec& spec) {
        spec.noise_sigma = std::numeric_limits<double>::infinity();
      }),
  };
  for (std::size_t i = 0; i < refused.size(); ++i)
    EXPECT_THROW(serve::TokenFleet{refused[i]}, std::invalid_argument)
        << "spec " << i;
  EXPECT_NO_THROW(serve::TokenFleet{with([](puf::TokenSpec&) {})});
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
  // Refusals carry their message alone, never the source location of the
  // check, so the stream is the same wherever the daemon was built.
  const std::string arity_error = find_line(run.lines, "error", "q_short");
  ASSERT_FALSE(arity_error.empty());
  EXPECT_EQ(str_of(arity_error, "message"),
            "query challenge arity does not match the fleet tokens");
  // Submission errors carry a null id; the fault layer's refusals are the
  // three before the run-time arity failure.
  for (const char* id : {"b5", "b6", "b7"})
    EXPECT_TRUE(find_line(run.lines, "ack", id).empty()) << id;
  std::vector<std::string> messages;
  for (const std::string& line : run.lines)
    if (type_of(obs::JsonValue::parse(line)) == "error")
      messages.push_back(str_of(line, "message"));
  ASSERT_EQ(messages.size(), 13u);
  const std::vector<std::string> policy(messages.begin() + 9,
                                        messages.begin() + 12);
  const std::vector<std::string> expected_policy = {
      "flip rate must be in [0, 0.5)", "drop rate must be in [0, 1)",
      "burst length must be > 0"};
  EXPECT_EQ(policy, expected_policy);
  EXPECT_EQ(u64_of(run.lines.back(), "jobs"), 2u);
}

// A job over a work cap is refused at decode, before anything reserves or
// runs its work, and the rest of its wave runs.
TEST(ServeDaemon, JobsOverAWorkCapGetErrorLinesAndTheWaveRuns) {
  PoolSizeGuard guard;
  const std::uint64_t huge = std::uint64_t{1} << 53;
  const std::vector<std::string> input = {
      attack_job("x_budget", 12, 3, huge, 8, ""),
      attack_job("x_eval", 12, 3, 8, huge, ""),
      auth_job("a_rounds", 7, 5, huge),
      auth_job("a_ok", 7, 5, 16),
      kDrain,
  };

  serve::DaemonConfig config;
  config.fleet = small_fleet();
  support::set_pool_thread_count(1);
  const std::uint64_t errors0 = counter_value("serve.wire.errors");
  const ServeRun reference = run_daemon(config, input);
  ASSERT_EQ(reference.status, 0);
  EXPECT_EQ(counter_value("serve.wire.errors"), errors0 + 3);
  EXPECT_EQ(count_type(reference.lines, "error"), 3u);
  EXPECT_EQ(count_type(reference.lines, "ack"), 1u);
  EXPECT_EQ(count_type(reference.lines, "outcome"), 1u);
  EXPECT_FALSE(find_line(reference.lines, "outcome", "a_ok").empty());
  for (const char* id : {"x_budget", "x_eval", "a_rounds"})
    EXPECT_TRUE(find_line(reference.lines, "ack", id).empty()) << id;
  const std::vector<std::string> expected = {
      "job field \"budget\" exceeds its cap of " +
          std::to_string(serve::kMaxAttackBudget),
      "job field \"eval\" exceeds its cap of " +
          std::to_string(serve::kMaxAttackEval),
      "job field \"rounds\" exceeds its cap of " +
          std::to_string(serve::kMaxAuthRounds)};
  std::vector<std::string> messages;
  for (const std::string& line : reference.lines)
    if (type_of(obs::JsonValue::parse(line)) == "error")
      messages.push_back(str_of(line, "message"));
  EXPECT_EQ(messages, expected);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    support::set_pool_thread_count(threads);
    const ServeRun run = run_daemon(config, input);
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.joined, reference.joined) << "threads=" << threads;
  }
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

// The job journal is one append-only section, so every flush visits one
// section however many jobs the session has journaled: 2,000 jobs leave
// exactly the section "jobs", and a resume serves each record back from it.
TEST(ServeDaemon, LongSessionsJournalIntoOneSection) {
  TempCheckpoint file("long");
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();
  const std::size_t jobs = 2000;
  std::vector<std::string> input;
  for (std::size_t i = 0; i < jobs; ++i) {
    input.push_back(auth_job(std::to_string(i), 7 * i, i, 1));
    if (i % 100 == 99) input.push_back(kRun);
  }
  input.push_back(kDrain);
  const auto outcomes = [](const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const std::string& line : lines)
      if (type_of(obs::JsonValue::parse(line)) == "outcome")
        out.push_back(line);
    return out;
  };

  const ServeRun first = run_daemon(config, input);
  ASSERT_EQ(first.status, 0);
  ASSERT_EQ(outcomes(first.lines).size(), jobs);
  const support::snapshot::SnapshotWriter log =
      support::snapshot::SnapshotWriter::decode(
          support::snapshot::read_file_bytes(file.path()));
  EXPECT_EQ(log.section_names(), std::vector<std::string>{"jobs"});

  config.resume = true;
  const ServeRun resumed = run_daemon(config, input);
  ASSERT_EQ(resumed.status, 0);
  EXPECT_EQ(count_type(resumed.lines, "resumed"), jobs);
  EXPECT_EQ(outcomes(resumed.lines), outcomes(first.lines));

  // A journaled id resubmitted with another seed is refused by the one
  // fingerprint lookup, and nothing of it is served.
  const ServeRun other = run_daemon(config, {auth_job("5", 35, 6, 1), kDrain});
  ASSERT_EQ(other.status, 0);
  const std::string error = find_line(other.lines, "error", "5");
  ASSERT_FALSE(error.empty()) << other.joined;
  EXPECT_EQ(str_of(error, "message"),
            "journaled outcome was produced by a different spec");
  EXPECT_TRUE(find_line(other.lines, "ack", "5").empty());
  EXPECT_TRUE(find_line(other.lines, "resumed", "5").empty());
}

// A checkpoint in the one-section-per-job layout ("job.<id>", provenance
// without the journal tag) is another run identity: the daemon starts
// clean rather than carrying those sections through every compaction.
TEST(ServeDaemon, CheckpointInTheOldJournalLayoutResumesClean) {
  TempCheckpoint file("layout");
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();
  const std::string job = auth_job("a1", 5, 1, 8);
  const std::string stale =
      R"({"type":"outcome","id":"a1","kind":"auth","rounds":8,)"
      R"("accepted":0,"digest":"00000000"})";
  {
    store::CheckpointSession old(file.path(), config.fleet.seed,
                                 serve::TokenFleet(config.fleet).fingerprint(),
                                 /*resume=*/false);
    support::snapshot::SectionWriter& record = old.reset_section("job.a1");
    record.u32(serve::decode_request(job).job.fingerprint());
    record.u32(1);
    record.str(stale);
    old.flush();
  }

  config.resume = true;
  const std::uint64_t mismatch = counter_value("store.snapshot.mismatch");
  const ServeRun run = run_daemon(config, {job, kDrain});
  ASSERT_EQ(run.status, 0);
  EXPECT_EQ(counter_value("store.snapshot.mismatch"), mismatch + 1);
  const obs::JsonValue hello = obs::JsonValue::parse(run.lines.front());
  const obs::JsonValue* resumed = hello.find("resumed");
  ASSERT_NE(resumed, nullptr);
  EXPECT_TRUE(resumed->is_bool() && !resumed->bool_value);
  EXPECT_TRUE(find_line(run.lines, "resumed", "a1").empty());
  const std::string outcome = find_line(run.lines, "outcome", "a1");
  ASSERT_FALSE(outcome.empty());
  EXPECT_NE(outcome, stale);
  EXPECT_EQ(support::snapshot::SnapshotWriter::decode(
                support::snapshot::read_file_bytes(file.path()))
                .section_names(),
            std::vector<std::string>{"jobs"});
}

// A journal section that does not parse ends startup with the typed error,
// before any job is acked against it.
TEST(ServeDaemon, UnparsableJournalEndsStartup) {
  TempCheckpoint file("torn_record");
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();
  {
    store::CheckpointSession session(
        file.path(), config.fleet.seed,
        serve::TokenFleet(config.fleet).fingerprint() + " journal=jobs",
        /*resume=*/false);
    support::snapshot::SectionWriter& jobs = session.section("jobs");
    jobs.str("a1");
    jobs.u32(7);
    jobs.u32(2);  // two lines promised, one written
    jobs.str("{}");
    session.flush();
  }
  config.resume = true;
  EXPECT_THROW(serve::Daemon{config}, support::snapshot::SnapshotError);
}

// A session file has one writer at a time. Two jobs of one wave that name
// the same session would journal into it concurrently, so the second is
// refused at submission, like a duplicate id; the stream is then identical
// at every thread count. A later wave may use the session again.
TEST(ServeDaemon, OneWaveRefusesASecondJobOnTheSameSession) {
  PoolSizeGuard guard;
  const std::vector<std::string> input = {
      attack_job("A", 7, 11, 40, 40, R"(,"session":"S")"),
      attack_job("B", 7, 12, 40, 40, R"(,"session":"S")"),
      kRun,
      attack_job("C", 7, 13, 40, 40, R"(,"session":"S")"),
      kDrain,
  };
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    support::set_pool_thread_count(threads);
    TempCheckpoint file("owner", {"S"});
    serve::DaemonConfig config;
    config.fleet = small_fleet();
    config.checkpoint_path = file.path();
    const std::uint64_t errors = counter_value("serve.wire.errors");
    const ServeRun run = run_daemon(config, input);
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(counter_value("serve.wire.errors") - errors, 1u);
    EXPECT_EQ(count_type(run.lines, "error"), 1u) << run.joined;
    EXPECT_EQ(count_type(run.lines, "outcome"), 2u) << run.joined;
    const std::string error = find_line(run.lines, "error", "B");
    ASSERT_FALSE(error.empty()) << run.joined;
    EXPECT_NE(str_of(error, "message").find("session"), std::string::npos);
    EXPECT_TRUE(find_line(run.lines, "ack", "B").empty());
    EXPECT_FALSE(find_line(run.lines, "outcome", "A").empty());
    EXPECT_FALSE(find_line(run.lines, "outcome", "C").empty());
    if (threads == 1) reference = run.joined;
    EXPECT_EQ(run.joined, reference) << "threads=" << threads;
  }
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


// A continuation follows its own spec (DESIGN.md §16). The session journals
// what the token answered, beneath the fault channel, and the continuation
// re-walks its own channel over those answers, so its outcome line is the
// one the same spec gives without a session. The three runs: leg 1 writes
// session "C" under `first`, leg 2 continues it under `next` (id "Cb"), and
// a daemon with no checkpoint runs leg 2's spec without a session.
struct Continuation {
  ServeRun first;
  ServeRun next;
  ServeRun fresh;
};

std::string continuation_job(const std::string& id, const std::string& policy,
                             bool session) {
  return attack_job(id, 7, 11, 120, 80,
                    ",\"policy\":" + policy +
                        (session ? R"(,"session":"C")" : ""));
}

Continuation run_continuation(const TempCheckpoint& file,
                              const std::string& first,
                              const std::string& next) {
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();
  Continuation runs;
  runs.first =
      run_daemon(config, {continuation_job("Ca", first, true), kDrain});
  config.resume = true;
  runs.next = run_daemon(config, {continuation_job("Cb", next, true), kDrain});
  serve::DaemonConfig fresh_config;
  fresh_config.fleet = small_fleet();
  runs.fresh =
      run_daemon(fresh_config, {continuation_job("Cb", next, false), kDrain});
  return runs;
}

// A smaller budget locks the continuation down at that budget, though the
// journal holds more answers than the budget allows.
TEST(ServeDaemon, ContinuationUnderASmallerBudgetLocksDownAtThatBudget) {
  TempCheckpoint file("shrink", {"C"});
  const Continuation runs =
      run_continuation(file, R"({"flip_rate":0.03,"query_budget":300})",
                       R"({"flip_rate":0.03,"query_budget":60})");
  ASSERT_EQ(runs.first.status, 0);
  ASSERT_EQ(runs.next.status, 0);
  EXPECT_EQ(u64_of(find_line(runs.first.lines, "outcome", "Ca"), "collected"),
            120u);
  const std::string outcome = find_line(runs.next.lines, "outcome", "Cb");
  ASSERT_FALSE(outcome.empty()) << runs.next.joined;
  EXPECT_EQ(outcome, find_line(runs.fresh.lines, "outcome", "Cb"));
  EXPECT_EQ(str_of(outcome, "status"), "lockdown");
  EXPECT_EQ(u64_of(outcome, "collected"), 60u);
  EXPECT_EQ(u64_of(outcome, "queries"), 60u);
  EXPECT_EQ(u64_of(find_line(runs.next.lines, "obs", "Cb"), "replayed"), 60u);
}

// Another flip rate draws its own flips over the journaled answers.
TEST(ServeDaemon, ContinuationUnderAnotherFlipRateMatchesTheFreshRun) {
  TempCheckpoint file("reflip", {"C"});
  const Continuation runs =
      run_continuation(file, R"({"flip_rate":0.03,"query_budget":60})",
                       R"({"flip_rate":0.2,"query_budget":300})");
  ASSERT_EQ(runs.first.status, 0);
  ASSERT_EQ(runs.next.status, 0);
  EXPECT_EQ(str_of(find_line(runs.first.lines, "outcome", "Ca"), "status"),
            "lockdown");
  const std::string outcome = find_line(runs.next.lines, "outcome", "Cb");
  ASSERT_FALSE(outcome.empty()) << runs.next.joined;
  EXPECT_EQ(outcome, find_line(runs.fresh.lines, "outcome", "Cb"));
  const std::string obs_next = find_line(runs.next.lines, "obs", "Cb");
  const std::string obs_fresh = find_line(runs.fresh.lines, "obs", "Cb");
  EXPECT_EQ(u64_of(obs_next, "replayed"), 60u);
  EXPECT_EQ(u64_of(obs_next, "queries"), u64_of(obs_fresh, "queries"));
  EXPECT_EQ(u64_of(obs_next, "flips"), u64_of(obs_fresh, "flips"));
}

// Another drop rate sends other challenges to the token, so the journal
// diverges: the job gets an error line and no outcome, the session file
// keeps its bytes, and a resubmission under the first policy continues it.
TEST(ServeDaemon, ContinuationUnderAnotherDropRateIsRefusedAndKeepsTheSession) {
  TempCheckpoint file("redrop", {"C"});
  const std::string first = R"({"drop_rate":0.05,"query_budget":60})";
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.checkpoint_path = file.path();
  const ServeRun recorded =
      run_daemon(config, {continuation_job("Ca", first, true), kDrain});
  ASSERT_EQ(recorded.status, 0);
  const std::string session_path = file.path() + ".sess-C.snap";
  const std::string session_bytes =
      support::snapshot::read_file_bytes(session_path);

  config.resume = true;
  const std::uint64_t divergence = counter_value("store.snapshot.divergence");
  const ServeRun refused = run_daemon(
      config, {continuation_job("Cb", R"({"drop_rate":0.2,"query_budget":300})",
                                true),
               kDrain});
  EXPECT_EQ(refused.status, 0);
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence + 1);
  EXPECT_EQ(count_type(refused.lines, "error"), 1u) << refused.joined;
  EXPECT_EQ(count_type(refused.lines, "outcome"), 0u) << refused.joined;
  const std::string error = find_line(refused.lines, "error", "Cb");
  ASSERT_FALSE(error.empty()) << refused.joined;
  EXPECT_NE(str_of(error, "message").find("diverged"), std::string::npos);
  EXPECT_EQ(support::snapshot::read_file_bytes(session_path), session_bytes)
      << "a refused continuation must leave the session as it was";

  const ServeRun resumed =
      run_daemon(config, {continuation_job("Cc", first, true), kDrain});
  serve::DaemonConfig fresh_config;
  fresh_config.fleet = small_fleet();
  const ServeRun fresh =
      run_daemon(fresh_config, {continuation_job("Cc", first, false), kDrain});
  ASSERT_EQ(resumed.status, 0);
  const std::string outcome = find_line(resumed.lines, "outcome", "Cc");
  ASSERT_FALSE(outcome.empty()) << resumed.joined;
  EXPECT_EQ(outcome, find_line(fresh.lines, "outcome", "Cc"));
  EXPECT_EQ(u64_of(find_line(resumed.lines, "obs", "Cc"), "replayed"),
            u64_of(outcome, "collected"))
      << "every answer of the first policy comes from the journal";
}


// ------------------------------------------------------- hostile lines

TEST(ServeDaemon, MillionDeepLinesNeitherCrashNorStopTheDaemon) {
  const std::size_t depth = 1'000'000;
  const std::string open(depth, '[');
  const std::string close(depth, ']');
  const std::string balanced = R"({"type":"run","x":)" + open + close + "}";
  const std::string unbalanced =
      R"({"type":"run","x":)" + open + close.substr(1) + "}";

  serve::DaemonConfig config;
  config.fleet = small_fleet();
  const std::uint64_t requests = counter_value("serve.wire.requests");
  const std::uint64_t errors = counter_value("serve.wire.errors");
  const ServeRun run =
      run_daemon(config, {balanced, unbalanced, auth_job("d1", 3, 5, 4)});
  EXPECT_EQ(run.status, 0);
  EXPECT_EQ(counter_value("serve.wire.requests") - requests, 2u);
  EXPECT_EQ(counter_value("serve.wire.errors") - errors, 1u);

  // hello; the run's wave delta; the error; then the job's block on drain.
  std::vector<std::string> types;
  for (const std::string& line : run.lines)
    types.push_back(type_of(obs::JsonValue::parse(line)));
  const std::vector<std::string> expected = {
      "hello", "obs", "error", "ack", "obs", "outcome", "obs", "drained"};
  ASSERT_EQ(types, expected) << run.joined;
  EXPECT_TRUE(obs::JsonValue::parse(run.lines[2]).find("id")->is_null());
  EXPECT_FALSE(find_line(run.lines, "outcome", "d1").empty());
}

// ------------------------------------------- differential wire decode
//
// The DOM path the one-pass decode replaced, kept verbatim as the
// reference: the recursive-descent parser, JobSpec::parse over its DOM and
// the daemon's type check. A seeded mutation loop requires the decode, the
// daemon and the new JsonValue::parse to agree with it on every mutant.
namespace reference {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  obs::JsonValue run() {
    obs::JsonValue root = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  obs::JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        obs::JsonValue v;
        v.kind = obs::JsonValue::Kind::String;
        v.string_value = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return obs::JsonValue{};
      default: return parse_number();
    }
  }

  static obs::JsonValue make_bool(bool b) {
    obs::JsonValue v;
    v.kind = obs::JsonValue::Kind::Bool;
    v.bool_value = b;
    return v;
  }

  obs::JsonValue parse_object() {
    expect('{');
    obs::JsonValue v;
    v.kind = obs::JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(name), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  obs::JsonValue parse_array() {
    expect('[');
    obs::JsonValue v;
    v.kind = obs::JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  obs::JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' ||
                               c == 'e' || c == 'E' || c == '+' || c == '-';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    obs::JsonValue v;
    v.kind = obs::JsonValue::Kind::Number;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     v.number_value);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_)
      fail("malformed number");
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: need the pair
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("high surrogate without a following \\u low surrogate");
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

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

serve::JobSpec parse_job(const obs::JsonValue& request) {
  using serve::JobKind;
  using serve::JobSpec;
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

}  // namespace reference

/// What a request line comes to before the daemon's token, session and
/// duplicate-id checks.
struct Decoded {
  bool counted = false;  // serve.wire.requests counts the line
  bool refused = false;  // an error line: grammar, type or job spec
  bool capped = false;   // refused only for a work field over its cap
  std::string type;
  serve::JobSpec job;  // accepted "job" lines
};

Decoded reference_decode(const std::string& line) {
  Decoded out;
  obs::JsonValue request;
  try {
    request = reference::Parser(line).run();
  } catch (const std::exception&) {
    out.refused = true;
    return out;
  }
  // The daemon's type check.
  const obs::JsonValue* type = request.find("type");
  if (!request.is_object() || type == nullptr || !type->is_string()) {
    out.refused = true;
    return out;
  }
  out.counted = true;
  out.type = type->string_value;
  if (out.type == "job") {
    try {
      out.job = reference::parse_job(request);
    } catch (const std::exception&) {
      out.refused = true;
    }
    // The per-job work caps, on top of the DOM path's decision.
    if (!out.refused && (out.job.rounds > serve::kMaxAuthRounds ||
                         out.job.budget > serve::kMaxAttackBudget ||
                         out.job.eval > serve::kMaxAttackEval)) {
      out.refused = true;
      out.capped = true;
      out.job = {};
    }
  } else {
    out.refused = out.type != "run" && out.type != "drain";
  }
  return out;
}

Decoded one_pass_decode(const std::string& line) {
  Decoded out;
  serve::WireRequest request;
  try {
    request = serve::decode_request(line);
  } catch (const std::runtime_error&) {
    out.refused = true;
    return out;
  }
  out.counted = true;
  out.type = request.type;
  if (out.type == "job") {
    out.refused = !request.refusal.empty();
    if (!out.refused) out.job = request.job;
  } else {
    out.refused = out.type != "run" && out.type != "drain";
  }
  return out;
}

bool same_dom(const obs::JsonValue& a, const obs::JsonValue& b) {
  if (a.kind != b.kind || a.bool_value != b.bool_value ||
      a.string_value != b.string_value ||
      std::signbit(a.number_value) != std::signbit(b.number_value) ||
      a.number_value != b.number_value || a.items.size() != b.items.size() ||
      a.members.size() != b.members.size())
    return false;
  for (std::size_t i = 0; i < a.items.size(); ++i)
    if (!same_dom(a.items[i], b.items[i])) return false;
  for (std::size_t i = 0; i < a.members.size(); ++i)
    if (a.members[i].first != b.members[i].first ||
        !same_dom(a.members[i].second, b.members[i].second))
      return false;
  return true;
}

/// Valid request lines as (name, raw JSON value) members, mutated before
/// and after rendering.
using Members = std::vector<std::pair<std::string, std::string>>;

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutant(const std::vector<Members>& seeds) {
    Members members = seeds[rng_.uniform_below(seeds.size())];
    const std::size_t structural = rng_.uniform_below(3);
    for (std::size_t i = 0; i < structural; ++i) mutate_members(members);
    std::string line = render(members);
    const std::size_t bytewise = rng_.uniform_below(3);
    for (std::size_t i = 0; i < bytewise; ++i) mutate_bytes(line);
    return line;
  }

 private:
  template <typename T, std::size_t N>
  const T& pick(const T (&options)[N]) {
    return options[rng_.uniform_below(N)];
  }

  std::string ws() {
    static const char* const kSpaces[] = {"", "", "", " ", "\t", "\n", "\r",
                                          "  "};
    return pick(kSpaces);
  }

  std::string render(const Members& members) {
    std::string line = ws() + "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) line += ws() + ",";
      line += ws() + "\"" + members[i].first + "\"" + ws() + ":" + ws() +
              members[i].second;
    }
    return line + ws() + "}" + ws();
  }

  void mutate_members(Members& members) {
    static const char* const kValues[] = {
        "1", "0", "\"s\"", "\"\"", "true", "false", "null", "[]", "{}",
        "[1,[2,{\"a\":null}]]", "{\"type\":\"run\",\"id\":\"z\"}",
        "\"\\u0030\"", "[\"0101\"]", "[\"01\",7]", "{\"flip_rate\":0.4}",
        // One grammar slip each.
        "[1,]", "{\"a\":1,}", "[,1]", "[1 2]", "{\"a\" 1}", "{\"a\"}",
        "[\"a\":1]", "{1:2}", "[1]]", "tru", "nul"};
    static const char* const kNumbers[] = {
        "1e3", "-0", "1.0", "1e400", "1e-400", "2E0", "0.5", "-1",
        "9007199254740993", "01", ".5", "1.", "+1", "-", "1e", "0x10"};
    static const char* const kNames[] = {
        "type", "id", "kind", "token", "seed", "rounds", "budget",
        "eval", "policy", "session", "challenges", "extra", "Type", ""};
    if (members.empty()) {
      members.emplace_back(pick(kNames), pick(kValues));
      return;
    }
    const std::size_t at = rng_.uniform_below(members.size());
    switch (rng_.uniform_below(8)) {
      case 0: {  // duplicate member, before or after, maybe another value
        auto copy = members[at];
        if (rng_.coin()) copy.second = pick(kValues);
        const std::size_t to = rng_.uniform_below(members.size() + 1);
        members.insert(members.begin() + static_cast<std::ptrdiff_t>(to),
                       copy);
        break;
      }
      case 1:  // unknown or known member with an arbitrary value
        members.insert(
            members.begin() + static_cast<std::ptrdiff_t>(
                                  rng_.uniform_below(members.size() + 1)),
            {pick(kNames), pick(kValues)});
        break;
      case 2:
        members[at].second = pick(kValues);
        break;
      case 3:
        members[at].second = pick(kNumbers);
        break;
      case 4:
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 5:
        std::swap(members[at], members[rng_.uniform_below(members.size())]);
        break;
      case 6: {  // a challenge block on the edge of valid, wherever it goes
        static const char* const kBlocks[] = {
            "[]", "[\"\"]", "[\"0101\",\"\"]", "[\"01\\u0031\"]",
            "[\"\\u0030\"]", "[\"01\",\"1x\"]", "[\"0\",1]", "\"0101\"",
            "[[\"01\"]]", "[\"0\\n\"]"};
        auto found = std::find_if(members.begin(), members.end(),
                                  [](const auto& m) {
                                    return m.first == "challenges";
                                  });
        if (found == members.end())
          found = members.insert(members.end(), {"challenges", ""});
        found->second = pick(kBlocks);
        break;
      }
      default:  // escape one character of a name
        members[at].first = escape_one(members[at].first);
        break;
    }
  }

  std::string escape_one(const std::string& text) {
    if (text.empty()) return text;
    const std::size_t at = rng_.uniform_below(text.size());
    char hex[8];
    std::snprintf(hex, sizeof(hex), rng_.coin() ? "\\u%04x" : "\\u%04X",
                  static_cast<unsigned>(static_cast<unsigned char>(text[at])));
    return text.substr(0, at) + hex + text.substr(at + 1);
  }

  void mutate_bytes(std::string& line) {
    static const char kBytes[] = "{}[]\":,\\ \t\n01abeEtfnu+-.x/";
    static const char* const kEscapes[] = {
        "\\u0030", "\\u0031", "\\/", "\\\"", "\\\\", "\\n", "\\x",
        "\\ud800", "\\udc00", "\\ud83d\\ude00", "\\u00e9", "\\u12"};
    if (line.empty()) return;
    const std::size_t at = rng_.uniform_below(line.size());
    switch (rng_.uniform_below(8)) {
      case 0:  // flip
        line[at] = rng_.coin() ? kBytes[rng_.uniform_below(sizeof(kBytes) - 1)]
                               : static_cast<char>(rng_.uniform_below(256));
        break;
      case 1:  // insert
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                    kBytes[rng_.uniform_below(sizeof(kBytes) - 1)]);
        break;
      case 2:  // delete a short span
        line.erase(at, 1 + rng_.uniform_below(3));
        break;
      case 3:  // truncate
        line.resize(at);
        break;
      case 4: {  // escape a character where it stands, or insert an escape
        const char c = line[at];
        if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || c == '-') {
          line = line.substr(0, at) + escape_one(std::string(1, c)) +
                 line.substr(at + 1);
        } else {
          line.insert(at, pick(kEscapes));
        }
        break;
      }
      case 5:  // whitespace
        line.insert(at, ws() + " ");
        break;
      case 6: {  // a punctuation slip next to a structural character
        static const char* const kSlips[] = {",", ":", "]", "}", "[", "{",
                                             "\"\"", "1", "null", ""};
        std::size_t near = at;
        while (near < line.size() &&
               std::string_view("{}[],:").find(line[near]) ==
                   std::string_view::npos)
          ++near;
        if (near == line.size()) break;
        const std::string slip = pick(kSlips);
        if (slip.empty())
          line.erase(near, 1);
        else
          line.insert(near + rng_.uniform_below(2), slip);
        break;
      }
      default:  // a number spelling over a digit run
        if (line[at] >= '0' && line[at] <= '9') {
          std::size_t end = at;
          while (end < line.size() && line[end] >= '0' && line[end] <= '9')
            ++end;
          static const char* const kSpellings[] = {"1e3", "-0", "1.0",
                                                   "1e400"};
          line.replace(at, end - at, pick(kSpellings));
        }
        break;
    }
  }

  Rng rng_;
};

/// Hands the daemon one line at a time and keeps, per line, what it did
/// with it: the serve.wire counter deltas and the first line it wrote.
class AttributingChannel final : public serve::LineChannel {
 public:
  struct Record {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::string first_output;
  };

  AttributingChannel(const std::vector<std::string>& input, std::size_t& next,
                     std::vector<Record>& records)
      : input_(input), next_(next), records_(records) {}

  bool read_line(std::string& line) override {
    settle();
    if (next_ == input_.size()) return false;
    line = input_[next_++];
    records_.emplace_back();
    requests_ = counter_value("serve.wire.requests");
    errors_ = counter_value("serve.wire.errors");
    open_ = true;
    return true;
  }

  void write_line(std::string_view line) override {
    if (open_ && records_.back().first_output.empty())
      records_.back().first_output.assign(line);
  }

  /// Close the current line's record (the daemon read no line after it).
  void settle() {
    if (!open_) return;
    records_.back().requests = counter_value("serve.wire.requests") - requests_;
    records_.back().errors = counter_value("serve.wire.errors") - errors_;
    open_ = false;
  }

 private:
  const std::vector<std::string>& input_;
  std::size_t& next_;
  std::vector<Record>& records_;
  bool open_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
};

TEST(WireDecode, MutantsMatchTheDomPathLineForLine) {
  const std::uint64_t kTokens = 1000;
  const std::string c32 = challenge_string(32, 71);
  const std::string c70 = challenge_string(70, 72);
  const std::vector<Members> seeds = {
      {{"type", "\"job\""}, {"id", "\"a1\""}, {"kind", "\"auth\""},
       {"token", "7"}, {"seed", "5"}, {"rounds", "2"}},
      {{"type", "\"job\""}, {"id", "\"x1\""}, {"kind", "\"attack\""},
       {"token", "12"}, {"seed", "3"}, {"budget", "4"}, {"eval", "4"},
       {"policy", R"({"flip_rate":0.05,"drop_rate":0.02,)"
                  R"("burst_length":2,"query_budget":50})"}},
      {{"type", "\"job\""}, {"id", "\"x2\""}, {"kind", "\"attack\""},
       {"token", "999"}, {"seed", "4"}, {"budget", "3"}, {"eval", "2"},
       {"session", "\"s-1\""}},
      {{"type", "\"job\""}, {"id", "\"q1\""}, {"kind", "\"query\""},
       {"token", "5"}, {"seed", "1"},
       {"challenges", "[\"" + c32 + "\",\"" + c70 + "\",\"1\"]"}},
      {{"type", "\"run\""}},
      {{"type", "\"drain\""}},
  };
  Mutator mutator(20260118);
  std::vector<std::string> lines;
  std::vector<Decoded> expected;
  std::size_t mutants = 0;
  std::size_t accepted_jobs = 0;
  std::size_t capped_jobs = 0;
  std::size_t dom_failures = 0;
  for (; mutants < 20000; ++mutants) {
    std::string line = mutator.mutant(seeds);
    if (line.empty()) line = " ";  // the daemon skips empty lines unread
    // Shallow enough that the recursive reference cannot overflow.
    ASSERT_LT(std::count(line.begin(), line.end(), '[') +
                  std::count(line.begin(), line.end(), '{'),
              900);

    Decoded want = reference_decode(line);
    const Decoded got = one_pass_decode(line);
    ASSERT_EQ(got.counted, want.counted) << line;
    ASSERT_EQ(got.refused, want.refused) << line;
    ASSERT_EQ(got.type, want.type) << line;
    ASSERT_EQ(got.job.canonical(), want.job.canonical()) << line;
    if (want.type == "job" && !want.refused) ++accepted_jobs;
    if (want.capped) ++capped_jobs;

    bool old_threw = false;
    bool new_threw = false;
    obs::JsonValue old_dom;
    obs::JsonValue new_dom;
    try {
      old_dom = reference::Parser(line).run();
    } catch (const std::runtime_error&) {
      old_threw = true;
    }
    try {
      new_dom = obs::JsonValue::parse(line);
    } catch (const std::runtime_error&) {
      new_threw = true;
    }
    ASSERT_EQ(new_threw, old_threw) << line;
    if (old_threw) ++dom_failures;
    ASSERT_TRUE(same_dom(new_dom, old_dom)) << line;

    lines.push_back(std::move(line));
    expected.push_back(std::move(want));
  }
  // The loop reaches both sides of every decision.
  EXPECT_GT(accepted_jobs, 2000u);
  EXPECT_GT(capped_jobs, 0u);
  EXPECT_GT(dom_failures, 2000u);
  EXPECT_LT(dom_failures, mutants - 2000);

  // The daemon itself, line for line: a drain ends one daemon and the next
  // line goes to a fresh one, as a restarted service would see it.
  serve::DaemonConfig config;
  config.fleet = small_fleet();
  config.fleet.tokens = kTokens;
  std::vector<AttributingChannel::Record> records;
  std::size_t next = 0;
  while (next < lines.size()) {
    serve::Daemon daemon(config);
    AttributingChannel channel(lines, next, records);
    ASSERT_EQ(daemon.serve(channel), 0);
    channel.settle();
  }
  ASSERT_EQ(records.size(), lines.size());

  std::set<std::string> seen;  // the current daemon's accepted ids
  std::size_t job_id_errors = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Decoded& want = expected[i];
    const AttributingChannel::Record& got = records[i];
    bool refused = want.refused;
    std::string error_id;
    if (!refused && want.type == "job") {
      const serve::JobSpec& job = want.job;
      refused = job.token >= kTokens || !job.session.empty() ||
                seen.count(job.id) != 0;
      if (refused) {
        error_id = job.id;
        ++job_id_errors;
      } else {
        seen.insert(job.id);
      }
    }
    ASSERT_EQ(got.requests, want.counted ? 1u : 0u) << lines[i];
    ASSERT_EQ(got.errors, refused ? 1u : 0u) << lines[i];
    if (want.type == "job" || refused) {
      const obs::JsonValue first = obs::JsonValue::parse(got.first_output);
      const obs::JsonValue* id = first.find("id");
      ASSERT_NE(id, nullptr) << got.first_output;
      ASSERT_EQ(type_of(first), refused ? "error" : "ack") << lines[i];
      if (error_id.empty() && refused)
        ASSERT_TRUE(id->is_null()) << lines[i];
      else
        ASSERT_EQ(id->string_value, refused ? error_id : want.job.id)
            << lines[i];
    }
    if (!refused && want.type == "drain") seen.clear();
  }
  EXPECT_GT(job_id_errors, 1000u);
}

}  // namespace
