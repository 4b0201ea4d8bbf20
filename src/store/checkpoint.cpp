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

namespace {

// The answer codecs of the two journals: a membership answer is one byte
// (1 means -1), a circuit answer its output bits.
void put_answer(SectionWriter& w, int y) {
  w.u8(y < 0 ? std::uint8_t{1} : std::uint8_t{0});
}
void put_answer(SectionWriter& w, const BitVec& y) { put_bitvec(w, y); }
void get_answer(SectionReader& r, int& y) {
  const std::uint8_t byte = r.u8();
  PITFALLS_REQUIRE(byte <= 1, "snapshot oracle journal: bad answer byte");
  y = byte != 0 ? -1 : +1;
}
void get_answer(SectionReader& r, BitVec& y) { y = get_bitvec(r); }

}  // namespace

template <typename Answer>
OracleJournal<Answer>::OracleJournal(CheckpointSession* session,
                                     std::string section,
                                     std::size_t flush_every)
    : session_(session),
      section_(std::move(section)),
      flush_every_(flush_every) {
  if (session_ == nullptr) return;
  PITFALLS_REQUIRE(flush_every_ > 0, "flush cadence must be > 0");
  if (!session_->has_section(section_)) return;
  SectionReader r = session_->reader(section_);
  while (!r.at_end()) {
    BitVec x = get_bitvec(r);
    Answer y{};
    get_answer(r, y);
    records_.emplace_back(std::move(x), std::move(y));
  }
}

template <typename Answer>
const Answer* OracleJournal<Answer>::replay(const BitVec& x) {
  if (cursor_ == records_.size()) return nullptr;
  const auto& [recorded_x, recorded_y] = records_[cursor_];
  if (recorded_x != x) {
    StoreMetrics::get().divergence.add(1);
    throw ReplayDivergenceError(
        "oracle journal diverged from the live computation (section '" +
        section_ + "', record " + std::to_string(cursor_) + ")");
  }
  ++cursor_;
  StoreMetrics::get().replayed_queries.add(1);
  return &recorded_y;
}

template <typename Answer>
Answer OracleJournal<Answer>::record(const BitVec& x, Answer y) {
  if (session_ == nullptr) return y;
  SectionWriter& w = session_->section(section_);
  put_bitvec(w, x);
  put_answer(w, y);
  ++recorded_;
  if (recorded_ % flush_every_ == 0 || termination_requested()) flush();
  return y;
}

template <typename Answer>
void OracleJournal<Answer>::flush() {
  if (session_ != nullptr) session_->flush();
}

template class OracleJournal<int>;
template class OracleJournal<BitVec>;

RecordingOracle::RecordingOracle(ml::MembershipOracle& inner,
                                 CheckpointSession* session,
                                 std::string section, std::size_t flush_every)
    : inner_(&inner), journal_(session, std::move(section), flush_every) {}

int RecordingOracle::query_pm(const BitVec& x) {
  const int* recorded = journal_.replay(x);
  const int y =
      recorded != nullptr ? *recorded : journal_.record(x, inner_->query_pm(x));
  count_unmirrored();
  return y;
}

}  // namespace pitfalls::store
