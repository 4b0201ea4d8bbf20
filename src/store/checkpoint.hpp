// Crash-safe experiment store: checkpoint/resume sessions over snapshot
// files (DESIGN.md §14).
//
// Resume model — replay, not state surgery. A checkpoint persists the one
// thing a crashed run cannot recompute: what the physical oracle answered
// (oracle queries are the scarce resource the paper's budgets meter; CPU is
// not). On resume the deterministic computation re-runs from the start of
// its unit of work, and recorded answers are served from the log without
// touching the physical oracle. Because every learner/attack is a pure
// function of (seed, oracle answer sequence) — the DESIGN.md §6 determinism
// contract — the continued run is byte-identical to an uninterrupted one at
// any PITFALLS_THREADS. The journal sits beneath any fault channel
// (ml/robust), whose faults are a pure function of (seed, round,
// challenge): a resumed channel re-walks its own stream over the replayed
// rounds, so no channel state is persisted or restored, and replayed
// answers reach no target.
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
#include <utility>
#include <vector>

#include "ml/oracle.hpp"
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

/// The record/replay core of both oracle journals (RecordingOracle below,
/// AttackObservationJournal in store/observation_journal.hpp): one session
/// section of (x, answer) records, in the order the oracle was asked.
/// Answer is `int` (a ±1 membership answer, one byte on disk) or
/// support::BitVec (a circuit output, put_bitvec).
///
/// Construction loads any records the section holds. replay(x) serves them
/// in order: it returns the recorded answer when x is the challenge recorded
/// at that position (booked into store.snapshot.replayed_queries), throws
/// ReplayDivergenceError (store.snapshot.divergence) when it is not, and
/// returns nullptr once the records run out. record(x, y) appends a live
/// answer and flushes the session every `flush_every` records, and at once
/// when termination_requested(). A null session makes the journal a
/// passthrough: replay() always returns nullptr and record() writes nothing.
template <typename Answer>
class OracleJournal {
 public:
  OracleJournal(CheckpointSession* session, std::string section,
                std::size_t flush_every);

  const Answer* replay(const BitVec& x);
  Answer record(const BitVec& x, Answer y);

  /// Persist the session now (nothing without a session).
  void flush();

  /// Still serving recorded answers?
  bool replaying() const { return cursor_ < records_.size(); }
  /// Answers served from the journal so far.
  std::size_t replayed() const { return cursor_; }
  /// Answers appended by this process (after any replay).
  std::size_t recorded() const { return recorded_; }

 private:
  CheckpointSession* session_;
  std::string section_;
  std::size_t flush_every_;
  std::vector<std::pair<BitVec, Answer>> records_;
  std::size_t cursor_ = 0;
  std::size_t recorded_ = 0;
};

extern template class OracleJournal<int>;
extern template class OracleJournal<BitVec>;

/// MembershipOracle decorator that journals what the inner oracle — the
/// physical token — answered, one (challenge, answer byte) record per
/// answer, and serves a restored journal back on resume without touching
/// the inner oracle. Stack it directly on the token, beneath any fault
/// channel: token -> RecordingOracle -> FaultyMembershipOracle -> learner.
/// The channel then draws its faults over replayed and live answers alike,
/// so its budget, burst position and tallies end where an uninterrupted run
/// leaves them, and a dropped round — which never reached the token — is
/// re-derived, not replayed. queries() counts replayed and live answers
/// without mirroring them into oracle.membership_queries (the token books
/// its own). A null session makes it a passthrough.
class RecordingOracle final : public ml::MembershipOracle {
 public:
  RecordingOracle(ml::MembershipOracle& inner, CheckpointSession* session,
                  std::string section, std::size_t flush_every = 256);

  std::size_t num_vars() const override { return inner_->num_vars(); }
  int query_pm(const BitVec& x) override;

  /// Still serving restored answers?
  bool replaying() const { return journal_.replaying(); }
  /// Answers served from the restored journal so far.
  std::size_t replayed_queries() const { return journal_.replayed(); }
  /// Answers appended by this process (after any replay).
  std::size_t recorded_events() const { return journal_.recorded(); }

  /// Persist the session now (also called automatically per cadence).
  void flush_now() { journal_.flush(); }

 private:
  ml::MembershipOracle* inner_;
  OracleJournal<int> journal_;
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
/// RecordingOracle should journal into "<name>.log".
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
  const auto drop_log = [&] { session->remove_section(name + ".log"); };
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
