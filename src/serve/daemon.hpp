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
// journaled (one section job.<id>: the spec fingerprint, then the lines) and
// the file is flushed after each job. A daemon restarted with --resume
// serves journaled outcomes back without re-executing — provided the
// resubmitted spec fingerprints identically — so kill -9 mid-run plus a
// resume replays the identical outcome stream (store::CheckpointSession::
// flush's crash hook stands in for the kill deterministically). A wave
// refuses a job whose "session" an earlier job of the same wave names, so
// each session file has one writer. SIGTERM is cooperative (store
// termination flag): polled between protocol lines, it drains and exits
// 143.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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
  struct Pending {
    JobSpec spec;
    bool journaled = false;  // outcome already in the checkpoint journal
  };

  enum class Request { kContinue, kRanWave, kDrain };

  void emit_hello(LineChannel& channel);
  Request handle_request(LineChannel& channel, const std::string& line);
  void run_pending(LineChannel& channel);
  void journal_block(const JobSpec& spec, const JobResult& result);
  bool journaled_block(const JobSpec& spec, JobResult& out);
  int drain(LineChannel& channel, obs::StreamingReporter& reporter);

  DaemonConfig config_;
  TokenFleet fleet_;
  JobScheduler scheduler_;
  std::unique_ptr<store::CheckpointSession> session_;
  std::vector<Pending> pending_;
  std::map<std::string, bool> seen_ids_;  // duplicate-submission guard
  std::uint64_t jobs_emitted_ = 0;
};

}  // namespace pitfalls::serve
