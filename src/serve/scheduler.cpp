#include "serve/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <utility>

#include "ml/features.hpp"
#include "ml/logistic.hpp"
#include "ml/robust/learners.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "puf/bitslice_detail.hpp"
#include "puf/crp.hpp"
#include "serve/wire.hpp"
#include "store/checkpoint.hpp"
#include "support/parallel.hpp"
#include "support/require.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::serve {

namespace {

// Salt separating the per-job RNG streams from the token-materialization
// streams (both are rng_for_chunk derivations off the fleet seed; without
// the salt, job seed j and token id j would share a stream).
constexpr std::uint64_t kJobStreamSalt = 0x6a6f622d73747265ULL;  // "job-stre"

support::Rng job_stream(TokenFleet& fleet, const JobSpec& spec) {
  return support::rng_for_chunk(fleet.config().seed ^ kJobStreamSalt,
                                spec.seed);
}

std::string pm_string(const std::vector<int>& responses) {
  std::string text;
  text.reserve(responses.size());
  for (const int r : responses) text.push_back(r < 0 ? '-' : '+');
  return text;
}

std::string hex32(std::uint32_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

struct JobTally {
  std::uint64_t queries = 0;
  std::uint64_t replayed = 0;
  std::uint64_t flips = 0;
  std::uint64_t drops = 0;
  std::vector<std::string> spans;
};

std::string obs_line(const JobSpec& spec, const JobTally& tally) {
  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("obs");
  writer.key("scope").value("job");
  writer.key("id").value(spec.id);
  writer.key("queries").value(tally.queries);
  writer.key("replayed").value(tally.replayed);
  writer.key("flips").value(tally.flips);
  writer.key("drops").value(tally.drops);
  writer.key("spans").begin_array();
  for (const std::string& span : tally.spans) writer.value(span);
  writer.end_array();
  writer.end_object();
  return writer.str();
}

JobResult run_query(TokenFleet& fleet, const JobSpec& spec) {
  const auto model = fleet.acquire(spec.token);
  const std::size_t n = model->num_vars();
  for (const support::BitVec& challenge : spec.challenges)
    PITFALLS_REQUIRE_INPUT(
        challenge.size() == n,
        "query challenge arity does not match the fleet tokens");
  obs::TraceSpan span("serve.job.query");
  std::vector<int> responses(spec.challenges.size());
  model->eval_pm_batch(spec.challenges, responses);
  const std::string block = pm_string(responses);

  JobTally tally;
  tally.queries = spec.challenges.size();
  tally.spans = {"serve.job.query"};

  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("outcome");
  writer.key("id").value(spec.id);
  writer.key("kind").value("query");
  writer.key("responses").value(block);
  writer.key("digest").value(hex32(support::snapshot::crc32(block)));
  writer.end_object();

  JobResult result;
  result.ok = true;
  result.lines = {obs_line(spec, tally), writer.str()};
  return result;
}

JobResult run_auth(TokenFleet& fleet, const JobSpec& spec) {
  const auto model = fleet.acquire(spec.token);
  const std::size_t n = model->num_vars();
  const std::size_t chains = model->num_chains();
  const bool noisy = fleet.config().spec.noise_sigma > 0.0;
  obs::TraceSpan span("serve.job.auth");
  support::Rng rng = job_stream(fleet, spec);
  // Lockdown-shaped rounds (puf/lockdown.hpp): the challenge is nonce-
  // derived — half verifier, half token — never chosen. Both nonces come
  // from the job stream, so the round transcript is a pure function of the
  // spec; the verifier accepts a round when the measured response matches
  // the enrolled model's ideal response.
  //
  // Rounds run in blocks of kBatchBlock on the bit-sliced kernel. A round
  // draws its n challenge coins, then (sigma > 0) one gaussian per chain in
  // chain order, the draw order of XorArbiterPuf::eval_noisy. Each chain's
  // delays are computed once per block and give both the ideal and the
  // measured response, and each block's +/- bytes fold into a running
  // crc32, so a job holds O(block) memory at any round count.
  constexpr std::size_t kBlock = puf::detail::kBatchBlock;
  std::vector<support::BitVec> challenges(kBlock, support::BitVec(n));
  std::vector<double> delays(chains * kBlock);
  std::vector<double> noise(chains * kBlock);
  std::string block;
  block.reserve(kBlock);
  std::uint32_t digest = 0;
  std::size_t accepted = 0;
  for (std::size_t base = 0; base < spec.rounds; base += kBlock) {
    const std::size_t size = std::min(kBlock, spec.rounds - base);
    for (std::size_t r = 0; r < size; ++r) {
      rng.fill_coins(challenges[r]);
      if (noisy)
        for (std::size_t k = 0; k < chains; ++k)
          noise[k * kBlock + r] =
              rng.gaussian(0.0, model->chain(k).noise_sigma());
    }
    const std::span<const support::BitVec> batch(challenges.data(), size);
    for (std::size_t k = 0; k < chains; ++k)
      model->chain(k).delay_differences(
          batch, std::span<double>(delays).subspan(k * kBlock, size));
    block.clear();
    for (std::size_t r = 0; r < size; ++r) {
      int ideal = 1;
      int measured = 1;
      for (std::size_t k = 0; k < chains; ++k) {
        const double delay = delays[k * kBlock + r];
        const double margin = noisy ? delay + noise[k * kBlock + r] : delay;
        ideal *= delay < 0.0 ? -1 : +1;
        measured *= margin < 0.0 ? -1 : +1;
      }
      if (measured == ideal) ++accepted;
      block.push_back(measured < 0 ? '-' : '+');
    }
    digest = support::snapshot::crc32(block, digest);
  }

  JobTally tally;
  tally.queries = spec.rounds;
  tally.spans = {"serve.job.auth"};

  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("outcome");
  writer.key("id").value(spec.id);
  writer.key("kind").value("auth");
  writer.key("rounds").value(std::uint64_t{spec.rounds});
  writer.key("accepted").value(std::uint64_t{accepted});
  writer.key("digest").value(hex32(digest));
  writer.end_object();

  JobResult result;
  result.ok = true;
  result.lines = {obs_line(spec, tally), writer.str()};
  return result;
}

JobResult run_attack(TokenFleet& fleet, const std::string& checkpoint_path,
                     const JobSpec& spec) {
  const auto model = fleet.acquire(spec.token);
  // The job's private channel stack, declared in decoration order: the
  // token's ideal CRP map, then — for a named session — the journal of
  // what the token answered, then the §9 fault layer. The fault stream is
  // keyed by the job seed, not the daemon seed: the fault sequence belongs
  // to the spec, so resubmitting a spec (or resuming its session on another
  // daemon over the same fleet) re-walks the identical channel over the
  // journaled answers. Session files are per job, never shared between
  // concurrent jobs, which keeps journaling race-free on the worker pool.
  std::unique_ptr<store::CheckpointSession> session;
  if (!spec.session.empty()) {
    PITFALLS_REQUIRE(!checkpoint_path.empty(),
                     "oracle sessions need the daemon --checkpoint path");
    // Sessions always resume when their file exists: a continuation job
    // replays the journaled token answers for free under its own fault
    // policy, so a larger query_budget continues the attack and a smaller
    // one locks down at that budget. The provenance binds the journal to
    // this fleet, session and token, and names its layout.
    session = std::make_unique<store::CheckpointSession>(
        checkpoint_path + ".sess-" + spec.session + ".snap", spec.seed,
        fleet.fingerprint() + " session=" + spec.session +
            " token=" + std::to_string(spec.token) + " journal=answers",
        /*resume=*/true);
  }
  ml::FunctionMembershipOracle token(*model);
  store::RecordingOracle recorder(token, session.get(), "oracle.log");
  ml::robust::FaultyMembershipOracle oracle(recorder, spec.faults, spec.seed);
  support::Rng rng = job_stream(fleet, spec);

  // Collection is ml::robust's budgeted random-example loop with one
  // attempt per challenge: the fault channel is defined per raw query (§9),
  // so a dropped round consumes budget but yields no CRP and the next
  // challenge is drawn fresh; the lockdown ends collection with whatever
  // was gathered so far.
  ml::robust::Examples examples;
  {
    obs::TraceSpan span("serve.job.collect");
    examples = ml::robust::collect_examples(
        oracle, spec.budget, ml::robust::RetryPolicy{.max_attempts = 1}, rng);
  }

  const char* status = examples.budget_hit ? "lockdown" : "modeled";
  const std::string block = pm_string(examples.responses);
  double accuracy = 0.0;
  if (examples.challenges.size() >= 2) {
    obs::TraceSpan fit_span("serve.job.fit");
    ml::LinearModel hypothesis = ml::LogisticRegression().fit_model(
        examples.challenges, examples.responses, ml::parity_with_bias, rng);
    obs::TraceSpan eval_span("serve.job.eval");
    puf::CrpSet holdout = puf::CrpSet::collect_uniform(*model, spec.eval, rng);
    accuracy = holdout.accuracy_of(hypothesis);
  } else {
    status = "starved";
  }
  recorder.flush_now();

  JobTally tally;
  tally.queries = oracle.raw_queries();
  tally.replayed = recorder.replayed_queries();
  tally.flips = oracle.faults_injected();
  tally.drops = oracle.responses_dropped();
  tally.spans = {"serve.job.collect", "serve.job.fit", "serve.job.eval"};

  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("outcome");
  writer.key("id").value(spec.id);
  writer.key("kind").value("attack");
  writer.key("status").value(status);
  writer.key("collected").value(std::uint64_t{examples.challenges.size()});
  writer.key("queries").value(std::uint64_t{tally.queries});
  writer.key("accuracy").value(accuracy);
  writer.key("digest").value(hex32(support::snapshot::crc32(block)));
  writer.end_object();

  JobResult result;
  result.ok = true;
  result.lines = {obs_line(spec, tally), writer.str()};
  return result;
}

}  // namespace

JobScheduler::JobScheduler(TokenFleet& fleet, std::string checkpoint_path)
    : fleet_(&fleet), checkpoint_path_(std::move(checkpoint_path)) {}

JobResult JobScheduler::run_job(const JobSpec& spec) const {
  auto& registry = obs::MetricsRegistry::global();
  try {
    obs::TraceSpan span("serve.job.run");
    JobResult result;
    switch (spec.kind) {
      case JobKind::kQuery:
        result = run_query(*fleet_, spec);
        break;
      case JobKind::kAuth:
        result = run_auth(*fleet_, spec);
        break;
      case JobKind::kAttack:
        result = run_attack(*fleet_, checkpoint_path_, spec);
        break;
    }
    registry.counter("serve.jobs.completed").add();
    return result;
  } catch (const std::exception& error) {
    registry.counter("serve.jobs.failed").add();
    JobResult result;
    result.ok = false;
    result.lines = {error_line(spec.id, error.what())};
    return result;
  }
}

void JobScheduler::run_wave(const std::vector<JobSpec>& specs,
                            const std::vector<char>& skip,
                            std::vector<JobResult>& out) const {
  PITFALLS_REQUIRE(specs.size() == skip.size() && specs.size() == out.size(),
                   "wave vectors must have matching lengths");
  if (specs.empty()) return;
  support::parallel_for_tasks(
      specs.size(),
      [&](std::size_t index) {
        if (skip[index]) return;
        out[index] = run_job(specs[index]);
      },
      "serve.wave");
}

}  // namespace pitfalls::serve
