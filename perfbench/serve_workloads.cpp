// serve_lookup and serve_journaled: pitfalls-served's daemon runs
// in-process (serve::Daemon::serve) over a LineChannel the benchmark owns.
// The channel is the client: a closed loop that hands the daemon one wave
// of jobs plus "run", and builds the next wave only when the daemon asks
// for more input, i.e. after the last outcome of the wave was written. No
// sockets and no second process, so pipe scheduling stays out of the
// numbers.
//
// Timing boundaries are the channel calls themselves: a job's latency runs
// from the read_line that hands its line over to the write_line of its
// outcome. A wave's cycle runs from its first handed line to the daemon's
// next read_line; wave generation and output checks happen between cycles
// and are not timed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "puf/token.hpp"
#include "serve/daemon.hpp"
#include "support/bitvec.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace perfbench {
namespace {

using pitfalls::obs::JsonValue;
using pitfalls::obs::JsonWriter;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;
namespace serve = pitfalls::serve;

constexpr std::uint64_t kFleetTokens = 1'000'000;
constexpr double kZipfExponent = 1.1;
/// The salt of the daemon's per-job RNG streams (kJobStreamSalt in
/// serve/scheduler.cpp). The auth check re-derives a job's challenges from
/// it; a change to the salt changes every auth digest, so the check fails.
constexpr std::uint64_t kJobStreamSalt = 0x6a6f622d73747265ULL;

enum class Kind { kQuery, kAuth, kAttack };

/// The fixed work of one rep.
struct Shape {
  std::size_t queries = 0;  // jobs of each kind per wave
  std::size_t auths = 0;
  std::size_t attacks = 0;
  std::size_t challenges = 0;  // per query job
  std::size_t rounds = 0;      // per auth job
  std::size_t budget = 0;      // per attack job
  std::size_t eval = 0;
  std::size_t warmup_waves = 0;
  std::size_t timed_waves = 0;
  bool journaled = false;

  std::size_t wave_jobs() const { return queries + auths + attacks; }
};

/// Token ranks drawn from a power law with exponent kZipfExponent over
/// [0, n): the floor of a continuous draw on [1, n + 1), by inversion. An
/// approximation of Zipf that needs no table over the million ranks.
class ZipfRanks {
 public:
  ZipfRanks(std::uint64_t n, double s)
      : n_(n),
        exponent_(1.0 / (1.0 - s)),
        tail_(1.0 - std::pow(static_cast<double>(n) + 1.0, 1.0 - s)) {}

  std::uint64_t draw(Rng& rng) const {
    const double x = std::pow(1.0 - rng.uniform01() * tail_, exponent_);
    const auto rank = static_cast<std::uint64_t>(x) - 1;
    return std::min(rank, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double exponent_;
  double tail_;
};

/// Rank -> token id through an affine bijection mod n, so the hot set is
/// scattered over the id space. The fleet shards by id % shards; because
/// the multiplier is odd and n is a multiple of 64, the 4096 hottest ranks
/// land exactly 64 to a shard and warming them fills the default resident
/// bound exactly.
class TokenIds {
 public:
  TokenIds(std::uint64_t n, std::uint64_t seed) : n_(n) {
    Rng rng(seed);
    multiplier_ = rng.uniform_below(n) | 1;
    while (multiplier_ % 5 == 0) multiplier_ += 2;  // coprime to 10^6
    offset_ = rng.uniform_below(n);
  }
  std::uint64_t id(std::uint64_t rank) const {
    return (multiplier_ * rank + offset_) % n_;
  }

 private:
  std::uint64_t n_;
  std::uint64_t multiplier_ = 1;
  std::uint64_t offset_ = 0;
};

struct Job {
  Kind kind = Kind::kQuery;
  std::uint64_t token = 0;
  std::uint64_t seed = 0;           // the job's "seed" field
  std::size_t work = 0;             // challenges, rounds or budget
  bool sampled = false;             // recomputed by the output check
  std::vector<BitVec> challenges;   // kept for the sampled query only
  double handed = 0.0;              // read_line handed the job line over
  double outcome_at = -1.0;         // write_line of its outcome
  bool error = false;
  std::string outcome;
  std::string obs;
};

/// Per-layer tallies over the timed waves of traced reps.
struct Tallies {
  std::uint64_t jobs = 0;
  std::uint64_t bytes_in = 0;
  double latency_s = 0.0;
  double cycle_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t materializations = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t store_writes = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t raw_queries = 0;
  std::uint64_t drops = 0;
  std::uint64_t served_crps = 0;  // query challenges + auth rounds
  std::uint64_t warmed = 0;       // tokens materialized by the fleet warm-up
  double resident_ratio = 0.0;
  std::uint64_t reps = 0;
};

/// Registry counters read as deltas around each timed cycle.
struct CounterSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t materializations = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t store_writes = 0;
  std::uint64_t pool_tasks = 0;

  static CounterSnapshot take() {
    auto& registry = pitfalls::obs::MetricsRegistry::global();
    CounterSnapshot s;
    s.hits = registry.counter("serve.fleet.hits").value();
    s.materializations =
        registry.counter("serve.fleet.materializations").value();
    s.store_bytes = registry.counter("store.snapshot.bytes_written").value();
    s.store_writes = registry.counter("store.snapshot.writes").value();
    s.pool_tasks = registry.counter("support.pool.tasks").value();
    return s;
  }
};

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// The job index of a daemon line ("id":"j<index>"), or -1.
long long job_index(std::string_view line) {
  const std::size_t at = line.find("\"id\":\"j");
  if (at == std::string_view::npos) return -1;
  long long index = 0;
  std::size_t pos = at + 7;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return -1;
  for (; pos < line.size() && line[pos] >= '0' && line[pos] <= '9'; ++pos)
    index = index * 10 + (line[pos] - '0');
  return index;
}

double number_field(const JsonValue& object, std::string_view name) {
  const JsonValue* value = object.find(name);
  return value != nullptr && value->is_number() ? value->number_value : -1.0;
}

std::string string_field(const JsonValue& object, std::string_view name) {
  const JsonValue* value = object.find(name);
  return value != nullptr && value->is_string() ? value->string_value : "";
}

class ServeWorkload;

/// The closed-loop client, seen by the daemon as its connection.
class Client final : public serve::LineChannel {
 public:
  Client(ServeWorkload& workload, Recorder& recorder, RepStats& stats);

  bool read_line(std::string& line) override;
  void write_line(std::string_view line) override;

 private:
  void build_wave();
  void finish_wave(double end);
  bool check(const Job& job, const JsonValue& outcome) const;

  ServeWorkload& workload_;
  Recorder& recorder_;
  RepStats& stats_;
  Rng rng_;
  std::size_t wave_ = 0;  // waves handed over so far
  std::uint64_t first_job_ = 0;
  std::vector<Job> jobs_;
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
  bool in_cycle_ = false;
  double cycle_start_ = 0.0;
  double cpu_start_ = 0.0;
  double run_handed_ = 0.0;
  double first_block_ = -1.0;
  double last_outcome_ = -1.0;  // pending journal interval start
  std::ptrdiff_t cycle_span_ = -1;
  std::ptrdiff_t wave_span_ = -1;
  CounterSnapshot counters_;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const char* name, Shape shape, std::uint64_t seed,
                std::string scratch)
      : name_(name),
        shape_(shape),
        scratch_(std::move(scratch)),
        fleet_seed_(Rng(seed).uniform_below(1ULL << 53)),
        input_seed_(seed ^ 0x6a6f62732d696e70ULL),
        ids_(kFleetTokens, seed ^ 0x746f6b656e2d6964ULL) {}

  RepStats run_rep(Recorder& recorder) override {
    RepStats stats;
    const double start = now_s();
    serve::DaemonConfig config;
    config.fleet.seed = fleet_seed_;
    config.fleet.tokens = kFleetTokens;
    std::string rep_dir;
    if (shape_.journaled) {
      rep_dir = scratch_ + "/rep-" + std::to_string(reps_);
      std::filesystem::remove_all(rep_dir);
      std::filesystem::create_directories(rep_dir);
      config.checkpoint_path = rep_dir + "/daemon.snap";
    }
    ++reps_;
    setup_start_ = start;
    {
      serve::Daemon daemon(config);
      warm_fleet(daemon, recorder);
      Client client(*this, recorder, stats);
      if (daemon.serve(client) != 0) ++stats.failed;
      if (recorder.enabled()) {
        tallies_.resident_ratio +=
            static_cast<double>(daemon.fleet().resident()) /
            static_cast<double>(config.fleet.resident_limit);
        ++tallies_.reps;
      }
    }
    if (shape_.journaled) std::filesystem::remove_all(rep_dir);
    return stats;
  }

  std::map<std::string, double> layer_metrics(
      const Recorder& recorder) const override;

  std::string describe() const override {
    return std::string(name_) + ": " + std::to_string(shape_.timed_waves) +
           " timed waves of " + std::to_string(shape_.wave_jobs()) +
           " jobs (" + std::to_string(shape_.queries) + " query x " +
           std::to_string(shape_.challenges) + " challenges, " +
           std::to_string(shape_.auths) + " auth x " +
           std::to_string(shape_.rounds) + " rounds, " +
           std::to_string(shape_.attacks) + " attack x budget " +
           std::to_string(shape_.budget) + ") after " +
           std::to_string(shape_.warmup_waves) +
           " warm-up waves; fleet 10^6 tokens, resident bound 4096";
  }

 private:
  friend class Client;

  /// Set-up: fill the daemon's fleet to its resident bound with the hottest
  /// ranks. The daemon hands its fleet out read-only for diagnostics and
  /// the protocol has no warm-up request, so the benchmark acquires on the
  /// (non-const) fleet object directly, before serve() starts.
  void warm_fleet(serve::Daemon& daemon, Recorder& recorder) {
    auto& fleet = const_cast<serve::TokenFleet&>(daemon.fleet());
    const std::ptrdiff_t span = recorder.open("serve.fleet.warm", 0);
    for (std::uint64_t rank = 0; rank < fleet.config().resident_limit; ++rank)
      fleet.acquire(ids_.id(rank));
    recorder.close(span);
    if (recorder.enabled()) tallies_.warmed += fleet.config().resident_limit;
  }

  const char* name_;
  Shape shape_;
  std::string scratch_;
  std::uint64_t fleet_seed_;
  std::uint64_t input_seed_;
  TokenIds ids_;
  ZipfRanks ranks_{kFleetTokens, kZipfExponent};
  std::uint64_t reps_ = 0;
  double setup_start_ = 0.0;
  Tallies tallies_;
};

Client::Client(ServeWorkload& workload, Recorder& recorder, RepStats& stats)
    : workload_(workload),
      recorder_(recorder),
      stats_(stats),
      rng_(workload.input_seed_) {}

void Client::build_wave() {
  const Shape& shape = workload_.shape_;
  std::vector<Kind> kinds;
  kinds.insert(kinds.end(), shape.queries, Kind::kQuery);
  kinds.insert(kinds.end(), shape.auths, Kind::kAuth);
  kinds.insert(kinds.end(), shape.attacks, Kind::kAttack);
  rng_.shuffle(kinds);

  first_job_ += jobs_.size();
  jobs_.assign(kinds.size(), Job{});
  lines_.clear();
  // The first job of each kind in the wave is recomputed by the check.
  bool sampled[3] = {false, false, false};
  std::string bits(64, '0');
  for (std::size_t slot = 0; slot < kinds.size(); ++slot) {
    Job& job = jobs_[slot];
    const std::uint64_t index = first_job_ + slot;
    job.kind = kinds[slot];
    job.token = workload_.ids_.id(workload_.ranks_.draw(rng_));
    job.seed = rng_.uniform_below(1ULL << 53);
    job.sampled = !sampled[static_cast<int>(job.kind)];
    sampled[static_cast<int>(job.kind)] = true;
    std::string id = "j";
    id += std::to_string(index);
    JsonWriter writer;
    writer.begin_object();
    writer.key("type").value("job");
    writer.key("id").value(id);
    writer.key("token").value(job.token);
    writer.key("seed").value(job.seed);
    switch (job.kind) {
      case Kind::kQuery: {
        job.work = shape.challenges;
        writer.key("kind").value("query");
        writer.key("challenges").begin_array();
        for (std::size_t c = 0; c < shape.challenges; ++c) {
          for (char& bit : bits) bit = rng_.coin() ? '1' : '0';
          writer.value(bits);
          if (job.sampled) job.challenges.push_back(BitVec::from_string(bits));
        }
        writer.end_array();
        break;
      }
      case Kind::kAuth:
        job.work = shape.rounds;
        writer.key("kind").value("auth");
        writer.key("rounds").value(std::uint64_t{shape.rounds});
        break;
      case Kind::kAttack:
        job.work = shape.budget;
        writer.key("kind").value("attack");
        writer.key("budget").value(std::uint64_t{shape.budget});
        writer.key("eval").value(std::uint64_t{shape.eval});
        writer.key("policy").begin_object();
        writer.key("flip_rate").value(0.05);
        writer.key("drop_rate").value(0.05);
        writer.end_object();
        std::string session = "s";
        session += std::to_string(index);
        writer.key("session").value(session);
        break;
    }
    writer.end_object();
    lines_.push_back(writer.str());
  }
  lines_.push_back(R"({"type":"run"})");
  next_ = 0;
}

bool Client::read_line(std::string& line) {
  if (next_ == lines_.size()) {
    // Everything handed over was answered: the daemon wants the next wave.
    if (in_cycle_) finish_wave(now_s());
    const Shape& shape = workload_.shape_;
    if (wave_ == shape.warmup_waves + shape.timed_waves) return false;
    build_wave();
    ++wave_;
    if (wave_ > shape.warmup_waves && recorder_.enabled()) {
      counters_ = CounterSnapshot::take();
      recorder_.reset_obs();
    }
    wave_span_ = -1;
    in_cycle_ = true;
    first_block_ = -1.0;
    last_outcome_ = -1.0;
    cpu_start_ = cpu_s();
    cycle_start_ = now_s();
    cycle_span_ = wave_ > shape.warmup_waves
                      ? recorder_.add("op.wave", cycle_start_, cycle_start_,
                                      wave_)
                      : -1;
  }
  const double now = now_s();
  if (next_ < jobs_.size()) {
    jobs_[next_].handed = now;
    if (cycle_span_ >= 0) workload_.tallies_.bytes_in += lines_[next_].size();
  } else {
    run_handed_ = now;
  }
  line = std::move(lines_[next_++]);
  return true;
}

void Client::write_line(std::string_view line) {
  const double now = now_s();
  const bool timed = cycle_span_ >= 0;
  if (last_outcome_ >= 0.0) {
    // The daemon journals a finished block between its outcome line and
    // the next line it writes (Daemon::journal_block: two section resets
    // and a CheckpointSession::flush).
    if (timed)
      recorder_.add("store.flush", last_outcome_, now, wave_, cycle_span_);
    last_outcome_ = -1.0;
  }
  const long long index = job_index(line);
  Job* job = nullptr;
  if (index >= 0 && static_cast<std::uint64_t>(index) >= first_job_ &&
      static_cast<std::uint64_t>(index) - first_job_ < jobs_.size())
    job = &jobs_[static_cast<std::size_t>(index) - first_job_];

  if (starts_with(line, R"({"type":"ack")")) {
    if (job != nullptr && timed)
      recorder_.add("serve.wire.parse", job->handed, now, wave_, cycle_span_);
    return;
  }
  const bool block_line = starts_with(line, R"({"type":"outcome")") ||
                          starts_with(line, R"({"type":"obs","scope":"job")");
  if (block_line && first_block_ < 0.0) {
    first_block_ = now;
    if (timed)
      wave_span_ = recorder_.add("serve.sched.wave", run_handed_, now, wave_,
                                 cycle_span_);
  }
  if (starts_with(line, R"({"type":"outcome")")) {
    if (job == nullptr) {
      ++stats_.failed;
      return;
    }
    job->outcome_at = now;
    job->outcome.assign(line);
    if (workload_.shape_.journaled) last_outcome_ = now;
  } else if (starts_with(line, R"({"type":"obs","scope":"job")")) {
    if (job != nullptr) job->obs.assign(line);
  } else if (starts_with(line, R"({"type":"error")")) {
    if (job != nullptr)
      job->error = true;
    else
      ++stats_.failed;  // a request-level error names no job
  }
}

/// "+"/"-" per response, as the daemon encodes them.
std::string pm_text(const std::vector<int>& responses) {
  std::string text;
  for (const int r : responses) text.push_back(r < 0 ? '-' : '+');
  return text;
}

/// Checks one outcome. The sampled job of each kind is recomputed outside
/// the timed cycle with the other PUF kernel than the daemon used: the
/// daemon answers a query with eval_pm_batch and an auth round with scalar
/// eval_pm, so a wrong kernel fails one of the two recomputations.
bool Client::check(const Job& job, const JsonValue& outcome) const {
  namespace puf = pitfalls::puf;
  switch (job.kind) {
    case Kind::kAuth: {
      // With sigma 0 "accepted" always equals "rounds" (the daemon
      // compares eval_pm with itself), so the digest is what is checked.
      if (number_field(outcome, "rounds") != static_cast<double>(job.work))
        return false;
      if (!job.sampled) return true;
      const puf::XorArbiterPuf model = puf::materialize_token(
          puf::TokenSpec{}, workload_.fleet_seed_, job.token);
      Rng stream = pitfalls::support::rng_for_chunk(
          workload_.fleet_seed_ ^ kJobStreamSalt, job.seed);
      std::vector<BitVec> challenges(job.work, BitVec(model.num_vars()));
      for (BitVec& challenge : challenges)
        for (std::size_t i = 0; i < challenge.size(); ++i)
          challenge.set(i, stream.coin());
      std::vector<int> expected(challenges.size());
      model.eval_pm_batch(challenges, expected);
      char digest[16];
      std::snprintf(digest, sizeof(digest), "%08x",
                    pitfalls::support::snapshot::crc32(pm_text(expected)));
      return string_field(outcome, "digest") == digest;
    }
    case Kind::kAttack:
      return string_field(outcome, "status") == "modeled" &&
             number_field(outcome, "collected") ==
                 static_cast<double>(job.work);
    case Kind::kQuery: {
      const std::string responses = string_field(outcome, "responses");
      if (responses.size() != job.work) return false;
      if (!job.sampled) return true;
      const puf::XorArbiterPuf model = puf::materialize_token(
          puf::TokenSpec{}, workload_.fleet_seed_, job.token);
      std::vector<int> expected;
      for (const BitVec& challenge : job.challenges)
        expected.push_back(model.eval_pm(challenge));
      return responses == pm_text(expected);
    }
  }
  return false;
}

void Client::finish_wave(double end) {
  const double cpu_end = cpu_s();
  in_cycle_ = false;
  const Shape& shape = workload_.shape_;
  const bool timed = wave_ > shape.warmup_waves;
  if (!timed) {
    if (wave_ == shape.warmup_waves)
      stats_.setup_s = end - workload_.setup_start_;
  } else {
    stats_.timed_s += end - cycle_start_;
    stats_.cpu_s += cpu_end - cpu_start_;
  }
  Tallies& tallies = workload_.tallies_;
  if (timed && recorder_.enabled()) {
    recorder_.close_at(cycle_span_, end);
    recorder_.import_obs(wave_span_, wave_);
    const CounterSnapshot after = CounterSnapshot::take();
    tallies.hits += after.hits - counters_.hits;
    tallies.materializations +=
        after.materializations - counters_.materializations;
    tallies.store_bytes += after.store_bytes - counters_.store_bytes;
    tallies.store_writes += after.store_writes - counters_.store_writes;
    tallies.pool_tasks += after.pool_tasks - counters_.pool_tasks;
    tallies.cycle_s += end - cycle_start_;
    tallies.jobs += jobs_.size();
  }
  for (const Job& job : jobs_) {
    bool ok = !job.error && job.outcome_at >= 0.0;
    if (ok) {
      stats_.digest =
          pitfalls::support::snapshot::crc32(job.outcome, stats_.digest);
      ok = check(job, JsonValue::parse(job.outcome));
    }
    if (!timed) {
      if (!ok) ++stats_.failed;  // a broken warm-up wave fails the rep
      continue;
    }
    ++stats_.ops;
    if (!ok) ++stats_.failed;
    const double latency = (ok ? job.outcome_at : end) - job.handed;
    stats_.latency_s.push_back(latency);
    if (recorder_.enabled()) {
      tallies.latency_s += latency;
      if (job.kind != Kind::kAttack) tallies.served_crps += job.work;
      if (job.kind == Kind::kAttack && !job.obs.empty()) {
        const JsonValue obs = JsonValue::parse(job.obs);
        tallies.raw_queries +=
            static_cast<std::uint64_t>(number_field(obs, "queries"));
        tallies.drops += static_cast<std::uint64_t>(number_field(obs, "drops"));
      }
    }
  }
}

std::map<std::string, double> ServeWorkload::layer_metrics(
    const Recorder& recorder) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<double> self = recorder.self_by_span();
  // A run_job span's kind is the kind span the scheduler opens inside it.
  std::vector<int> kind(spans.size(), -1);
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    int k = -1;
    if (span.name == "serve.job.query") k = 0;
    if (span.name == "serve.job.auth") k = 1;
    if (span.name == "serve.job.collect") k = 2;
    if (k >= 0) kind[static_cast<std::size_t>(span.parent)] = k;
  }
  double run_ms[3] = {0, 0, 0};
  double runs[3] = {0, 0, 0};
  double run_total_s = 0.0;
  double acquire_s = 0.0;
  double acquire_n = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "serve.job.run" || kind[i] < 0) continue;
    const double duration = spans[i].end - spans[i].start;
    run_total_s += duration;
    run_ms[kind[i]] += duration * 1e3;
    runs[kind[i]] += 1.0;
    if (kind[i] != 2) {
      acquire_s += self[i];  // TokenFleet::acquire plus dispatch
      acquire_n += 1.0;
    }
  }
  const auto times = recorder.self_times();
  const auto get = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? Recorder::Self{} : it->second;
  };
  const Recorder::Self parse = get("serve.wire.parse");
  const Recorder::Self flush = get("store.flush");
  const Recorder::Self collect = get("serve.job.collect");
  const Recorder::Self fit = get("serve.job.fit");
  const Recorder::Self warm = get("serve.fleet.warm");
  // The daemon's own job spans: eval_pm_batch (query) or scalar eval_pm
  // (auth) plus challenge generation and outcome encoding.
  const double served_s =
      get("serve.job.query").total_s + get("serve.job.auth").total_s;
  const double jobs = static_cast<double>(tallies_.jobs);
  const double threads =
      static_cast<double>(pitfalls::support::pool_thread_count());

  std::map<std::string, double> out;
  out["serve.wire.parse_us"] =
      ratio(parse.total_s * 1e6, static_cast<double>(parse.count));
  out["serve.wire.bytes_in"] =
      ratio(static_cast<double>(tallies_.bytes_in), jobs);
  out["serve.fleet.acquire_us"] = ratio(acquire_s * 1e6, acquire_n);
  out["serve.fleet.hit_ratio"] =
      ratio(static_cast<double>(tallies_.hits),
            static_cast<double>(tallies_.hits + tallies_.materializations));
  out["serve.fleet.resident"] =
      ratio(tallies_.resident_ratio, static_cast<double>(tallies_.reps));
  out["serve.sched.query_ms"] = ratio(run_ms[0], runs[0]);
  out["serve.sched.auth_ms"] = ratio(run_ms[1], runs[1]);
  out["serve.sched.attack_ms"] = ratio(run_ms[2], runs[2]);
  out["serve.sched.wait_ms"] =
      ratio((tallies_.latency_s - run_total_s) * 1e3, jobs);
  out["serve.sched.pool_busy_ratio"] =
      ratio(run_total_s, tallies_.cycle_s * threads);
  out["puf.eval_ns_per_crp"] =
      ratio(served_s * 1e9, static_cast<double>(tallies_.served_crps));
  out["puf.materialize_us"] =
      ratio(warm.total_s * 1e6, static_cast<double>(tallies_.warmed));
  out["ml.robust.query_ns"] =
      ratio(collect.total_s * 1e9, static_cast<double>(tallies_.raw_queries));
  out["ml.robust.wasted_ratio"] =
      ratio(static_cast<double>(tallies_.drops),
            static_cast<double>(tallies_.raw_queries));
  out["ml.logistic.fit_ms"] =
      ratio(fit.self_s * 1e3, static_cast<double>(fit.count));
  out["store.flush_ms"] =
      ratio(flush.total_s * 1e3, static_cast<double>(flush.count));
  out["store.bytes_per_job"] =
      ratio(static_cast<double>(tallies_.store_bytes), jobs);
  out["store.writes_per_job"] =
      ratio(static_cast<double>(tallies_.store_writes), jobs);
  out["support.pool.tasks_per_op"] =
      ratio(static_cast<double>(tallies_.pool_tasks), jobs);
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_serve_lookup(std::uint64_t seed) {
  Shape shape;
  shape.queries = 8;
  shape.auths = 8;
  shape.challenges = 256;
  shape.rounds = 256;
  shape.warmup_waves = 2;
  shape.timed_waves = 32;
  return std::make_unique<ServeWorkload>("serve_lookup", shape, seed, "");
}

std::unique_ptr<Workload> make_serve_journaled(std::uint64_t seed,
                                               const std::string& scratch) {
  Shape shape;
  shape.auths = 12;
  shape.attacks = 4;
  shape.rounds = 32768;
  shape.budget = 256;
  shape.eval = 256;
  shape.warmup_waves = 1;
  shape.timed_waves = 8;
  shape.journaled = true;
  return std::make_unique<ServeWorkload>("serve_journaled", shape, seed,
                                         scratch);
}

}  // namespace perfbench
