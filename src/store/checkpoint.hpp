// Crash-safe experiment store: checkpoint/resume sessions over snapshot
// files (DESIGN.md §14).
//
// Resume model — replay, not state surgery. A checkpoint persists the one
// thing a crashed run cannot recompute: the oracle interaction log (oracle
// queries are the scarce resource the paper's budgets meter; CPU is not).
// On resume the deterministic computation re-runs from the start of its
// unit of work, and recorded oracle answers are served from the log without
// touching the physical oracle. Because every learner/attack is a pure
// function of (seed, oracle answer sequence) — the DESIGN.md §6 determinism
// contract — the continued run is byte-identical to an uninterrupted one at
// any PITFALLS_THREADS, and replayed queries charge no budget (the fault
// channel's position is restored, not re-walked).
//
// Failure handling, in order of preference:
//   * missing snapshot         -> clean start (first run; not an error)
//   * torn or corrupt frame    -> resume from the frames before it +
//                                 store.snapshot.corrupt
//   * corrupt header           -> clean start + store.snapshot.corrupt
//   * seed/provenance mismatch -> clean start + store.snapshot.mismatch
//   * log disagrees with the   -> ReplayDivergenceError +
//     re-run mid-replay           store.snapshot.divergence; the caller
//                                 drops the unit's sections and runs clean
// Corruption can cost the saved progress, never correctness.
#pragma once

#include <csignal>
#include <memory>
#include <string>
#include <vector>

#include "ml/robust/faults.hpp"
#include "store/serialize.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::obs {
class BenchReporter;
}

namespace pitfalls::store {

/// A replayed oracle log stopped matching the live computation (different
/// challenge at the same position): the snapshot belongs to a different
/// configuration or code revision. The unit of work must restart clean.
class ReplayDivergenceError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One checkpoint file bound to one run identity (seed + provenance).
/// Construction decodes any existing snapshot log into the section set the
/// session then writes through. All loads/writes/corruption events land in
/// the store.snapshot.* metrics.
class CheckpointSession {
 public:
  /// `resume` false ignores any existing file (fresh run, e.g. --checkpoint
  /// without --resume); true loads it when present, valid, and matching
  /// seed+provenance.
  CheckpointSession(std::string path, std::uint64_t seed,
                    std::string provenance, bool resume);

  /// True when a prior snapshot was loaded and its sections are available.
  bool resumed() const { return resumed_; }

  const std::string& path() const { return path_; }
  std::uint64_t seed() const { return writer_.seed(); }

  support::snapshot::SectionWriter& section(const std::string& name) {
    return writer_.section(name);
  }
  support::snapshot::SectionWriter& reset_section(const std::string& name) {
    return writer_.reset_section(name);
  }
  void remove_section(const std::string& name) {
    writer_.remove_section(name);
  }
  bool has_section(const std::string& name) const {
    return writer_.has_section(name);
  }

  /// Cursor over a section's current bytes. The view is invalidated by any
  /// mutation of that section — decode immediately.
  support::snapshot::SectionReader reader(const std::string& name) const {
    return writer_.reader(name);
  }

  /// Durably persist the current sections to path(). The session's first
  /// flush writes the compacted image atomically (dropping any torn tail and
  /// dead records a resumed log carried); every later flush appends one
  /// frame holding only what changed since the previous flush, then fsyncs.
  /// Either way a crash leaves the state after one whole flush or the next.
  ///
  /// The store's one crash hook: when PITFALLS_CRASH_AFTER_FLUSHES holds a
  /// positive integer N, the process ends with std::_Exit(137) (SIGKILL's
  /// status) right after its N-th flush returns. The snapshot is durable
  /// then, so the process leaves exactly what a SIGKILL between two flushes
  /// would. The variable is read once; any other value turns the hook off.
  /// The count is per process, across sessions and threads, so the crash
  /// point is deterministic wherever a single thread flushes: the
  /// checkpointed benches, and a daemon run with no "session" jobs (whose
  /// oracle journals flush from pool threads).
  void flush();

 private:
  std::string path_;
  support::snapshot::SnapshotWriter writer_;
  bool resumed_ = false;
  bool appending_ = false;  // path() holds this session's last flush
};

/// Book one replay-served query into store.snapshot.replayed_queries
/// (shared by RecordingOracle and AttackObservationJournal).
void note_replayed_query();

/// Book a divergence into store.snapshot.divergence and throw
/// ReplayDivergenceError with `context` in the message.
[[noreturn]] void throw_divergence(const std::string& context);

/// Cooperative SIGTERM/deadline flush: install_termination_handler() makes
/// SIGTERM set a flag instead of killing the process; checkpointed loops
/// poll termination_requested(), flush, and exit at the next safe point.
/// request_termination() sets the flag directly (deadline expiry, tests).
void install_termination_handler();
void request_termination();
void clear_termination();
bool termination_requested();

/// The cooperative exit at a cell boundary (checkpointed_unit ends with
/// it): once termination is requested, name the session's flushed snapshot
/// on stderr and exit 143, so --resume continues from the next cell.
void exit_if_terminating(const CheckpointSession& session);

/// A checkpointed bench's session. Null without --checkpoint/--resume;
/// otherwise installs the SIGTERM handler and opens the reporter's
/// checkpoint path for run identity (seed, "<tag>.smoke=<0|1>"), loading
/// an existing snapshot on --resume. An unusable path prints a message and
/// exits 1.
std::unique_ptr<CheckpointSession> open_bench_session(
    const obs::BenchReporter& reporter, std::uint64_t seed,
    const std::string& tag);

/// MembershipOracle decorator that journals every interaction into a
/// session section and serves a restored journal back on resume.
///
/// Record mode: forwards to the inner oracle, appends one self-delimiting
/// event per interaction (answered / transient drop / budget refusal), and
/// flushes the session every `flush_every` events (plus whenever
/// termination_requested()). Replay mode (journal restored): serves events
/// without touching the inner oracle — no budget is consumed and the global
/// physical-query counter stays honest; replayed queries are booked into
/// store.snapshot.replayed_queries. When the journal runs dry the recorded
/// fault-channel position is restored into `fault_channel` (if given) and
/// the oracle switches to record mode, continuing the same journal.
class RecordingOracle final : public ml::MembershipOracle {
 public:
  /// `drop_recorded_refusals` is the budget-refill continuation switch
  /// (DESIGN.md §16): a recorded budget refusal is a *non*-interaction — the
  /// token never answered — so when a lockdown session resumes with a larger
  /// CRP budget, replaying the refusal would re-trip the old lockdown even
  /// though the refilled channel could now answer. With the flag set, any
  /// recorded refusal events are stripped from the replay queue (and from
  /// the persisted journal, which is rewritten without them) so the same
  /// query is forwarded live against the refilled budget instead. Replayed
  /// answered/dropped events still charge nothing, exactly as before.
  RecordingOracle(ml::MembershipOracle& inner, CheckpointSession& session,
                  std::string section,
                  ml::robust::FaultyMembershipOracle* fault_channel = nullptr,
                  std::size_t flush_every = 256,
                  bool drop_recorded_refusals = false);

  std::size_t num_vars() const override { return inner_->num_vars(); }
  int query_pm(const BitVec& x) override;

  /// Still serving restored events?
  bool replaying() const { return replay_cursor_ < replay_.size(); }
  /// Events served from the restored journal so far.
  std::size_t replayed_queries() const { return replay_cursor_; }
  /// Events appended by this process (after any replay).
  std::size_t recorded_events() const { return recorded_; }

  /// Persist the session now (also called automatically per cadence).
  void flush_now();

 private:
  struct Event {
    std::uint8_t kind;
    BitVec challenge;
    std::uint8_t flipped;  // kAnswered payload: 1 means response -1
  };
  static constexpr std::uint8_t kAnswered = 0;
  static constexpr std::uint8_t kDropped = 1;
  static constexpr std::uint8_t kBudgetRefused = 2;

  void append_event(std::uint8_t kind, const BitVec& x, std::uint8_t flipped);
  void finish_replay();

  ml::MembershipOracle* inner_;
  CheckpointSession* session_;
  std::string section_;
  std::string state_section_;
  ml::robust::FaultyMembershipOracle* fault_channel_;
  std::size_t flush_every_;
  std::vector<Event> replay_;
  std::size_t replay_cursor_ = 0;
  std::size_t recorded_ = 0;
  bool have_restored_state_ = false;
  ml::robust::FaultyMembershipOracle::State restored_state_;
};

/// Cell-level resume for bench sweeps, and the one place a bench's cell
/// boundary lives. Without a session, just run. Otherwise, if `session`
/// already holds a decoded outcome for `name`, return it without running;
/// if not, run, store the encoded outcome, drop the cell's journal
/// sections, and flush. A ReplayDivergenceError from `run` (stale journal)
/// drops the journal and runs the cell clean — graceful degradation, never
/// silent divergence. Either way the cell ends with exit_if_terminating().
///
/// Conventions: the outcome lives in "<name>.outcome"; `run`'s
/// RecordingOracle should journal into "<name>.log" (its fault-channel
/// state rides in "<name>.log.oracle").
template <typename T, typename RunFn, typename PutFn, typename GetFn>
T checkpointed_unit(CheckpointSession* session, const std::string& name,
                    RunFn&& run, PutFn&& put, GetFn&& get) {
  if (session == nullptr) return run();
  const std::string outcome_section = name + ".outcome";
  if (session->has_section(outcome_section)) {
    support::snapshot::SectionReader r = session->reader(outcome_section);
    T stored = get(r);
    exit_if_terminating(*session);
    return stored;
  }
  const std::string log_section = name + ".log";
  const auto drop_log = [&] {
    session->remove_section(log_section);
    session->remove_section(log_section + ".oracle");
  };
  T result = [&]() -> T {
    try {
      return run();
    } catch (const ReplayDivergenceError&) {
      drop_log();
      return run();
    }
  }();
  put(session->reset_section(outcome_section), result);
  drop_log();
  session->flush();
  exit_if_terminating(*session);
  return result;
}

}  // namespace pitfalls::store
