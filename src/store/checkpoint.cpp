#include "store/checkpoint.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "obs/bench_reporter.hpp"
#include "obs/metrics.hpp"

namespace pitfalls::store {

namespace {

using support::snapshot::SectionReader;
using support::snapshot::SectionWriter;
using support::snapshot::SnapshotError;
using support::snapshot::SnapshotFault;
using support::snapshot::SnapshotWriter;

struct StoreMetrics {
  obs::Counter& writes;
  obs::Counter& bytes_written;
  obs::Counter& loads;
  obs::Counter& corrupt;
  obs::Counter& mismatch;
  obs::Counter& resumed;
  obs::Counter& replayed_queries;
  obs::Counter& divergence;

  static StoreMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static StoreMetrics metrics{
        registry.counter("store.snapshot.writes"),
        registry.counter("store.snapshot.bytes_written"),
        registry.counter("store.snapshot.loads"),
        registry.counter("store.snapshot.corrupt"),
        registry.counter("store.snapshot.mismatch"),
        registry.counter("store.snapshot.resumed"),
        registry.counter("store.snapshot.replayed_queries"),
        registry.counter("store.snapshot.divergence")};
    return metrics;
  }
};

volatile std::sig_atomic_t g_termination_requested = 0;

// PITFALLS_CRASH_AFTER_FLUSHES as a positive integer (digits only), or 0:
// hook off.
std::uint64_t crash_after_flushes_from_env() {
  const char* env = std::getenv("PITFALLS_CRASH_AFTER_FLUSHES");
  if (env == nullptr || *env < '0' || *env > '9') return 0;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(env, &end, 10);
  return *end == '\0' && errno == 0 ? value : 0;
}

const std::uint64_t g_crash_after_flushes = crash_after_flushes_from_env();
std::atomic<std::uint64_t> g_flushes{0};

extern "C" void on_termination_signal(int) { g_termination_requested = 1; }

}  // namespace

CheckpointSession::CheckpointSession(std::string path, std::uint64_t seed,
                                     std::string provenance, bool resume)
    : path_(std::move(path)), writer_(seed, provenance) {
  // Fail unwritable paths now, with a catchable error, rather than at the
  // first cadence flush deep inside a learner loop.
  support::snapshot::probe_writable(path_);
  if (!resume) return;
  StoreMetrics& metrics = StoreMetrics::get();
  try {
    SnapshotWriter restored =
        SnapshotWriter::decode(support::snapshot::read_file_bytes(path_));
    if (restored.seed() != seed || restored.provenance() != provenance) {
      // A snapshot from a different run identity is stale, not corrupt:
      // start clean and leave the file to be overwritten by the next flush.
      metrics.mismatch.add(1);
      return;
    }
    // A torn tail is a flush that never completed: resume from the ones
    // before it, and count the loss. The first flush compacts it away.
    if (restored.torn_tail()) metrics.corrupt.add(1);
    writer_ = std::move(restored);
    resumed_ = true;
    metrics.loads.add(1);
    metrics.resumed.add(1);
  } catch (const SnapshotError& error) {
    // No file yet is the normal first-run case; anything else is detected
    // corruption — count it and degrade to a clean start.
    if (error.fault() != SnapshotFault::io) metrics.corrupt.add(1);
  }
}

void CheckpointSession::flush() {
  // A failed write may leave a torn tail that would hide later frames, so
  // the flush after a failure compacts again.
  const bool append = std::exchange(appending_, false);
  const std::string bytes = append ? writer_.pending_frame() : writer_.encode();
  if (append) {
    support::snapshot::append_file_durable(path_, bytes);
  } else {
    support::snapshot::write_file_atomic(path_, bytes);
  }
  writer_.mark_persisted();
  appending_ = true;
  StoreMetrics& metrics = StoreMetrics::get();
  metrics.writes.add(1);
  metrics.bytes_written.add(bytes.size());
  if (g_crash_after_flushes != 0 &&
      g_flushes.fetch_add(1) + 1 == g_crash_after_flushes)
    std::_Exit(137);
}

void note_replayed_query() { StoreMetrics::get().replayed_queries.add(1); }

void throw_divergence(const std::string& context) {
  StoreMetrics::get().divergence.add(1);
  throw ReplayDivergenceError(
      "oracle journal diverged from the live computation (" + context + ")");
}

void install_termination_handler() {
  std::signal(SIGTERM, on_termination_signal);
}

void request_termination() { g_termination_requested = 1; }

void clear_termination() { g_termination_requested = 0; }

bool termination_requested() { return g_termination_requested != 0; }

void exit_if_terminating(const CheckpointSession& session) {
  if (!termination_requested()) return;
  std::cerr << "termination requested: checkpoint " << session.path()
            << " flushed; continue with --resume\n";
  std::exit(143);
}

std::unique_ptr<CheckpointSession> open_bench_session(
    const obs::BenchReporter& reporter, std::uint64_t seed,
    const std::string& tag) {
  if (!reporter.checkpoint_enabled()) return nullptr;
  install_termination_handler();
  try {
    return std::make_unique<CheckpointSession>(
        reporter.checkpoint_path(), seed,
        tag + ".smoke=" + (reporter.smoke() ? "1" : "0"), reporter.resume());
  } catch (const SnapshotError& error) {
    std::cerr << "bench_" << reporter.name() << ": unusable checkpoint path "
              << reporter.checkpoint_path() << ": " << error.what() << "\n";
    std::exit(1);
  }
}

RecordingOracle::RecordingOracle(
    ml::MembershipOracle& inner, CheckpointSession& session,
    std::string section, ml::robust::FaultyMembershipOracle* fault_channel,
    std::size_t flush_every, bool drop_recorded_refusals)
    : inner_(&inner),
      session_(&session),
      section_(std::move(section)),
      state_section_(section_ + ".oracle"),
      fault_channel_(fault_channel),
      flush_every_(flush_every) {
  PITFALLS_REQUIRE(flush_every_ > 0, "flush cadence must be > 0");
  if (session_->has_section(section_)) {
    SectionReader r = session_->reader(section_);
    while (!r.at_end()) {
      Event event;
      event.kind = r.u8();
      PITFALLS_REQUIRE(event.kind <= kBudgetRefused,
                       "snapshot oracle journal: unknown event kind");
      event.challenge = get_bitvec(r);
      event.flipped = event.kind == kAnswered ? r.u8() : 0;
      if (drop_recorded_refusals && event.kind == kBudgetRefused) continue;
      replay_.push_back(std::move(event));
    }
    if (drop_recorded_refusals && session_->has_section(section_)) {
      // Rewrite the persisted journal without the refusals: refusals are
      // not physical interactions, and the channel's recorded position
      // (raw_queries) never counted them, so the stripped journal plus the
      // recorded state stay mutually consistent. Continuation events append
      // after the surviving prefix exactly as they would on a fresh run.
      SectionWriter& w = session_->reset_section(section_);
      for (const Event& event : replay_) {
        w.u8(event.kind);
        put_bitvec(w, event.challenge);
        if (event.kind == kAnswered) w.u8(event.flipped);
      }
    }
  }
  if (session_->has_section(state_section_)) {
    SectionReader r = session_->reader(state_section_);
    restored_state_ = get_fault_state(r);
    have_restored_state_ = true;
  }
  // An empty journal with recorded fault state cannot happen (they flush
  // together), but if the journal is empty there is nothing to replay and
  // the channel is already at its start position.
  if (replay_.empty()) finish_replay();
}

void RecordingOracle::finish_replay() {
  if (have_restored_state_ && fault_channel_ != nullptr)
    fault_channel_->restore_state(restored_state_);
  have_restored_state_ = false;
}

void RecordingOracle::append_event(std::uint8_t kind, const BitVec& x,
                                   std::uint8_t flipped) {
  SectionWriter& w = session_->section(section_);
  w.u8(kind);
  put_bitvec(w, x);
  if (kind == kAnswered) w.u8(flipped);
  ++recorded_;
  if (recorded_ % flush_every_ == 0 || termination_requested()) flush_now();
}

void RecordingOracle::flush_now() {
  SectionWriter& w = session_->reset_section(state_section_);
  if (fault_channel_ != nullptr) {
    put_fault_state(w, fault_channel_->state());
  } else {
    put_fault_state(w, ml::robust::FaultyMembershipOracle::State{});
  }
  session_->flush();
}

int RecordingOracle::query_pm(const BitVec& x) {
  if (replay_cursor_ < replay_.size()) {
    const Event& event = replay_[replay_cursor_];
    if (event.challenge != x) {
      throw_divergence("section '" + section_ + "', event " +
                       std::to_string(replay_cursor_));
    }
    ++replay_cursor_;
    note_replayed_query();
    if (replay_cursor_ == replay_.size()) finish_replay();
    switch (event.kind) {
      case kAnswered:
        count_unmirrored();
        return event.flipped != 0 ? -1 : +1;
      case kDropped:
        count_unmirrored();
        throw ml::robust::TransientFaultError(
            "oracle gave no response (transient fault)");
      default:
        throw ml::robust::QueryBudgetExhaustedError(
            "oracle query budget exhausted (lockdown)");
    }
  }
  try {
    const int response = inner_->query_pm(x);
    count_unmirrored();
    append_event(kAnswered, x,
                 response < 0 ? std::uint8_t{1} : std::uint8_t{0});
    return response;
  } catch (const ml::robust::QueryBudgetExhaustedError&) {
    append_event(kBudgetRefused, x, 0);
    throw;
  } catch (const ml::robust::TransientFaultError&) {
    count_unmirrored();
    append_event(kDropped, x, 0);
    throw;
  }
}

}  // namespace pitfalls::store
