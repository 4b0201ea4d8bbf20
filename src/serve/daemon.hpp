// The serve daemon: protocol loop, journaling, and streamed obs —
// DESIGN.md §16.
//
// Wire protocol (one JSON document per line, both directions):
//
//   -> {"type":"job", "id":..., "kind":"auth|attack|query", ...}  queue a job
//   -> {"type":"run"}                    execute the queued wave
//   -> {"type":"drain"}                  run the wave, flush, exit 0
//   (end of input behaves like "drain")
//
//   <- {"type":"hello", "schema":1, "fleet":{...}, "checkpoint":bool}
//   <- {"type":"ack", "id":...}          job accepted into the wave
//   <- {"type":"obs", "scope":"job", "id":..., ...}   per-job accounting
//   <- {"type":"outcome", "id":..., ...} per-job result
//   <- {"type":"obs", "scope":"wave", "counters":{...}}  registry deltas
//   <- {"type":"error", "id":...|null, "message":...}
//   <- {"type":"resumed", "id":...}      outcome served from the journal
//   <- {"type":"drained", "jobs":N}      clean shutdown marker (last line)
//
// Jobs inside a wave run concurrently (serve/scheduler.hpp); blocks are
// emitted strictly in submission order, and the streamed obs deltas cover
// only the deterministic serve.jobs./serve.wire./serve.session. counter
// families — so the full output stream is byte-identical for any
// PITFALLS_THREADS value.
//
// Crash safety: with a checkpoint configured, every finished job block is
// journaled as one record appended to the section "jobs" (the job id, the
// spec fingerprint, the line count, then the lines) and the file is flushed
// after each job, so a flush touches one section however long the session
// runs. A daemon restarted with --resume indexes that section once (id ->
// fingerprint and offset) and serves journaled outcomes back without
// re-executing, reading their lines from the log only when it serves them —
// provided the resubmitted spec fingerprints identically — so kill -9
// mid-run plus a resume replays the identical outcome stream
// (store::CheckpointSession::flush's crash hook stands in for the kill
// deterministically). A wave refuses a job whose "session" an earlier job
// of the same wave names, so each session file has one writer. SIGTERM is
// cooperative (store termination flag): polled between protocol lines, it
// drains without starting new work and exits 143.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/stream_sink.hpp"
#include "serve/scheduler.hpp"
#include "serve/token_fleet.hpp"
#include "serve/wire.hpp"
#include "store/checkpoint.hpp"

namespace pitfalls::serve {

struct DaemonConfig {
  TokenFleetConfig fleet;
  /// Empty: no persistence (sessions and resume disabled).
  std::string checkpoint_path;
  /// Load an existing checkpoint and serve journaled outcomes back. Needs
  /// checkpoint_path; the Daemon constructor rejects resume without one.
  bool resume = false;
};

class Daemon {
 public:
  explicit Daemon(const DaemonConfig& config);

  /// Serve one connection to completion. Returns the process exit status:
  /// 0 after drain/EOF, 143 after a cooperative SIGTERM drain.
  int serve(LineChannel& channel);

  const TokenFleet& fleet() const { return fleet_; }

 private:
  /// A record of the loaded journal: the spec fingerprint, and the offset
  /// of the record's line count in the "jobs" section.
  struct Journaled {
    std::uint32_t fingerprint = 0;
    std::size_t offset = 0;
  };

  struct Pending {
    JobSpec spec;
    const Journaled* journaled = nullptr;  // outcome in the loaded journal
  };

  enum class Request { kContinue, kRanWave, kDrain };

  void emit_hello(LineChannel& channel);
  Request handle_request(LineChannel& channel, const std::string& line);
  void run_pending(LineChannel& channel);
  void journal_block(const JobSpec& spec, const JobResult& result);
  /// The one shutdown path: run the queued wave (unless terminated), flush,
  /// and write the "drained" line. Returns the exit status, 0 or 143.
  int drain(LineChannel& channel, obs::StreamingReporter& reporter,
            bool terminated);

  DaemonConfig config_;
  TokenFleet fleet_;
  JobScheduler scheduler_;
  std::unique_ptr<store::CheckpointSession> session_;
  std::unordered_map<std::string, Journaled> journal_;  // loaded, by job id
  std::vector<Pending> pending_;
  std::set<std::string> seen_ids_;  // duplicate-submission guard
  std::uint64_t jobs_emitted_ = 0;
};

}  // namespace pitfalls::serve
