#include "serve/daemon.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/require.hpp"

namespace pitfalls::serve {

namespace {

// The job journal's one section: a record per finished job, appended and
// never rewritten, so offsets into it stay valid (compaction copies a
// section's bytes verbatim).
const std::string kJournal = "jobs";

/// Write the obs line of the counters that moved since the last one, if
/// any did.
void write_obs_delta(LineChannel& channel, obs::StreamingReporter& reporter) {
  const std::string delta = reporter.emit_delta("wave");
  if (!delta.empty()) channel.write_line(delta);
}

}  // namespace

Daemon::Daemon(const DaemonConfig& config)
    : config_(config),
      fleet_(config.fleet),
      scheduler_(fleet_, config.checkpoint_path) {
  PITFALLS_REQUIRE(!config_.resume || !config_.checkpoint_path.empty(),
                   "--resume needs a --checkpoint path to load");
  if (config_.checkpoint_path.empty()) return;
  // The tag names the journal layout: a checkpoint in another layout is a
  // provenance mismatch and starts clean, instead of being carried along.
  session_ = std::make_unique<store::CheckpointSession>(
      config_.checkpoint_path, fleet_.config().seed,
      fleet_.fingerprint() + " journal=" + kJournal, config_.resume);
  if (!session_->has_section(kJournal)) return;
  // Index the records once; a record that does not parse throws the typed
  // SnapshotError and ends startup.
  support::snapshot::SectionReader reader = session_->reader(kJournal);
  const std::size_t size = reader.remaining();
  while (!reader.at_end()) {
    Journaled& record = journal_[reader.str()];
    record.fingerprint = reader.u32();
    record.offset = size - reader.remaining();
    for (std::uint32_t lines = reader.u32(); lines > 0; --lines)
      reader.raw(reader.u32());
  }
}

void Daemon::emit_hello(LineChannel& channel) {
  const TokenFleetConfig& fleet = fleet_.config();
  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("hello");
  writer.key("schema").value(std::uint64_t{1});
  writer.key("fleet").begin_object();
  writer.key("seed").value(fleet.seed);
  writer.key("tokens").value(fleet.tokens);
  writer.key("stages").value(std::uint64_t{fleet.spec.stages});
  writer.key("chains").value(std::uint64_t{fleet.spec.chains});
  writer.key("sigma").value(fleet.spec.noise_sigma);
  writer.key("resident").value(std::uint64_t{fleet.resident_limit});
  writer.key("shards").value(std::uint64_t{fleet.shards});
  writer.end_object();
  writer.key("checkpoint").value(session_ != nullptr);
  writer.key("resumed").value(session_ != nullptr && session_->resumed());
  writer.end_object();
  channel.write_line(writer.str());
}

void Daemon::journal_block(const JobSpec& spec, const JobResult& result) {
  support::snapshot::SectionWriter& writer = session_->section(kJournal);
  writer.str(spec.id);
  writer.u32(spec.fingerprint());
  writer.u32(static_cast<std::uint32_t>(result.lines.size()));
  for (const std::string& line : result.lines) writer.str(line);
  session_->flush();
}

void Daemon::run_pending(LineChannel& channel) {
  if (pending_.empty()) return;
  auto& registry = obs::MetricsRegistry::global();
  const std::size_t count = pending_.size();
  std::vector<JobSpec> specs;
  specs.reserve(count);
  std::vector<char> skip(count, 0);
  std::vector<JobResult> blocks(count);
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back(std::move(pending_[i].spec));
    if (const Journaled* record = pending_[i].journaled) {
      // Read the journaled lines back from the log as the job is served.
      support::snapshot::SectionReader reader = session_->reader(kJournal);
      reader.raw(record->offset);
      blocks[i].lines.resize(reader.u32());
      for (std::string& line : blocks[i].lines) line = reader.str();
      blocks[i].ok = true;
      skip[i] = 1;
    }
  }
  scheduler_.run_wave(specs, skip, blocks);
  for (std::size_t i = 0; i < count; ++i) {
    if (skip[i]) {
      obs::JsonWriter writer;
      writer.begin_object();
      writer.key("type").value("resumed");
      writer.key("id").value(specs[i].id);
      writer.end_object();
      channel.write_line(writer.str());
      registry.counter("serve.session.resumed").add();
    }
    for (const std::string& line : blocks[i].lines) channel.write_line(line);
    ++jobs_emitted_;
    if (session_ && !skip[i] && blocks[i].ok)
      journal_block(specs[i], blocks[i]);
  }
  pending_.clear();
}

Daemon::Request Daemon::handle_request(LineChannel& channel,
                                       const std::string& line) {
  auto& registry = obs::MetricsRegistry::global();
  const auto refuse = [&](const std::string& id, const std::string& message) {
    registry.counter("serve.wire.errors").add();
    channel.write_line(error_line(id, message));
    return Request::kContinue;
  };
  WireRequest request;
  try {
    request = decode_request(line);
  } catch (const std::exception& error) {
    return refuse("", error.what());
  }
  registry.counter("serve.wire.requests").add();

  if (request.type == "job") {
    if (!request.refusal.empty()) return refuse("", request.refusal);
    Pending pending;
    pending.spec = std::move(request.job);
    const JobSpec& spec = pending.spec;
    if (spec.token >= fleet_.config().tokens)
      return refuse(spec.id, "job token outside the fleet population");
    if (!spec.session.empty() && session_ == nullptr)
      return refuse(spec.id,
                    "oracle sessions need the daemon --checkpoint path");
    if (seen_ids_.find(spec.id) != seen_ids_.end())
      return refuse(spec.id, "duplicate job id");
    // A session file is owned by one job at a time: two jobs of one wave
    // would journal into it concurrently.
    if (!spec.session.empty() &&
        std::any_of(pending_.begin(), pending_.end(), [&](const Pending& p) {
          return p.spec.session == spec.session;
        }))
      return refuse(spec.id, "session already named by a job in this wave");
    if (const auto record = journal_.find(spec.id); record != journal_.end()) {
      // A journaled outcome exists but the resubmitted spec differs —
      // refusing is the only safe answer (serving it would silently
      // attribute another spec's outcome to this one).
      if (record->second.fingerprint != spec.fingerprint())
        return refuse(spec.id,
                      "journaled outcome was produced by a different spec");
      pending.journaled = &record->second;
    }
    seen_ids_.insert(spec.id);
    registry.counter("serve.jobs.submitted").add();
    obs::JsonWriter writer;
    writer.begin_object();
    writer.key("type").value("ack");
    writer.key("id").value(spec.id);
    writer.end_object();
    channel.write_line(writer.str());
    pending_.push_back(std::move(pending));
    return Request::kContinue;
  }

  if (request.type == "run") {
    run_pending(channel);
    return Request::kRanWave;
  }

  if (request.type == "drain") {
    return Request::kDrain;  // the serve loop finishes the drain
  }

  return refuse("", "unknown request type: " + request.type);
}

int Daemon::drain(LineChannel& channel, obs::StreamingReporter& reporter,
                  bool terminated) {
  if (!terminated) run_pending(channel);
  write_obs_delta(channel, reporter);
  if (session_) session_->flush();
  obs::JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("drained");
  writer.key("jobs").value(jobs_emitted_);
  if (terminated) writer.key("terminated").value(true);
  writer.end_object();
  channel.write_line(writer.str());
  return terminated ? 143 : 0;
}

int Daemon::serve(LineChannel& channel) {
  // Only the deterministic counter families go on the wire; the
  // serve.fleet.* cache counters depend on worker interleaving and would
  // break the byte-identical-stream contract.
  obs::StreamingReporter reporter(
      {"serve.jobs.", "serve.session.", "serve.wire."});
  emit_hello(channel);
  std::string line;
  for (;;) {
    // Cooperative SIGTERM: flush what is journaled and stop without
    // starting new work (pending jobs are re-submittable — their specs are
    // the client's, their finished predecessors are in the journal).
    if (store::termination_requested()) return drain(channel, reporter, true);
    if (!channel.read_line(line)) break;  // EOF drains
    if (line.empty()) continue;
    const Request request = handle_request(channel, line);
    if (request == Request::kDrain) break;
    if (request == Request::kRanWave) write_obs_delta(channel, reporter);
  }
  return drain(channel, reporter, false);
}

}  // namespace pitfalls::serve
