// Thread-aware hierarchical tracing: RAII TraceSpan instances nest through
// a Tracer, plus zero-duration instant events and sampled counter events.
// ScopedTimer (below) feeds a wall-clock Histogram on scope exit, and
// Stopwatch reads the same clock for a bench's reported seconds.
//
// Thread model: every thread owns its span stack and its event ring, so
// spans may be opened from pool workers and the calling thread
// concurrently. Nesting is strictly LIFO *per thread* (enforced —
// end_span checks the calling thread's stack top, so an out-of-order
// destruction or a cross-thread close trips PITFALLS_ENSURE in every build
// type). Parent/child linkage is per-thread: a span's parent is the
// innermost span open on the SAME thread; spans opened inside a pool chunk
// whose thread has no enclosing span are roots of their chunk's track.
//
// Flight recorder: completed events append into the emitting thread's
// bounded ring (capacity per thread via PITFALLS_TRACE_EVENTS, default
// 65536) with oldest-evicted overwrite, so tracing never grows unbounded
// on long runs; dropped_events() reports evictions. Appends touch only the
// owning thread's ring — the per-ring mutex is contended only while a
// snapshot is being taken, never between emitting threads.
//
// Snapshot determinism: events() / write_json() merge the per-thread rings,
// sort by (start, id) and renumber ids in sorted order (remapping parent
// links; a parent that is still open or evicted exports as -1). Under the
// logical clock (below) the exported JSON is byte-stable for any
// PITFALLS_THREADS value.
//
// Clocks: kWall (default) timestamps events with real steady_clock offsets
// from the tracer epoch. kLogical (PITFALLS_TRACE_CLOCK=logical) assigns
// deterministic virtual ticks (exported as microseconds): events emitted
// outside parallel regions consume one tick from a serial counter; events
// emitted inside a top-level pool chunk draw from a per-(region, chunk)
// tick window keyed through the support/parallel on_chunk_run hook —
// chunk windows depend only on (region order, chunk index), never on the
// executing thread, which is what makes the export byte-identical across
// thread counts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace pitfalls::obs {

enum class TraceClock {
  kWall,     // steady_clock seconds since the tracer epoch
  kLogical,  // deterministic virtual ticks (1 tick == 1 exported µs)
};

enum class TraceEventKind { kSpan, kInstant, kCounter };

struct TraceEvent {
  std::string name;
  TraceEventKind kind = TraceEventKind::kSpan;
  std::size_t id = 0;          // snapshot order, 0-based (renumbered)
  std::ptrdiff_t parent = -1;  // id of the enclosing same-thread span
  std::size_t depth = 0;       // 0 for roots
  std::size_t track = 0;       // export track: thread slot (wall) / 0 (logical)
  double start_seconds = 0.0;  // offset from the tracer's epoch
  double duration_seconds = 0.0;
  double value = 0.0;          // counter sample (kCounter only)
};

class Tracer {
 public:
  /// Clock and per-thread ring capacity resolved from the environment
  /// (PITFALLS_TRACE_CLOCK / PITFALLS_TRACE_EVENTS).
  Tracer();
  Tracer(TraceClock clock, std::size_t capacity);
  ~Tracer();  // out-of-line: ThreadState is incomplete here
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Completed events from every thread, sorted by (start, id) with ids
  /// renumbered in sorted order.
  std::vector<TraceEvent> events() const;

  /// Spans currently open across all threads.
  std::size_t open_spans() const;

  /// Events evicted from the flight-recorder rings since the last clear().
  std::uint64_t dropped_events() const;

  std::size_t capacity() const { return capacity_; }
  TraceClock clock() const { return clock_; }

  /// Switch clocks on an empty tracer (no events recorded, no open spans);
  /// tests use this to pin the global tracer to the logical clock.
  void set_clock(TraceClock clock);

  /// Drop recorded events and restart the epoch (no spans may be open).
  void clear();

  /// Zero-duration point event on the calling thread's track.
  void instant(std::string name);

  /// Counter sample event (rendered as a counter track by Chrome tracing).
  void counter(std::string name, double value);

  /// JSON array of event objects in snapshot order (see events()).
  void write_json(JsonWriter& writer) const;

  static Tracer& global();

 private:
  friend class TraceSpan;

  struct OpenSpan {
    std::string name;
    std::uint64_t id;
    std::ptrdiff_t parent;
    std::size_t depth;
    double start;
    // Chunk context the span was opened in. Parentage never crosses a
    // chunk boundary: a span opened inside a pool chunk roots a fresh tree
    // even when the chunk happens to run inline on a thread with open
    // spans — otherwise parent links would depend on which thread executed
    // the chunk.
    std::uint64_t region;
    std::size_t chunk;
  };

  struct ThreadState;

  std::uint64_t begin_span(std::string name);
  void end_span(std::uint64_t id);
  void emit(std::string name, TraceEventKind kind, double value);
  ThreadState& thread_state() const;
  double now_seconds(ThreadState& state) const;
  std::uint64_t chunk_window_base(std::uint64_t region,
                                  std::size_t chunks) const;
  void append(ThreadState& state, TraceEvent event) const;

  const std::uint64_t uid_;  // process-unique; keys the per-thread TLS cache
  TraceClock clock_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::atomic<std::uint64_t> next_id_{0};
  mutable std::atomic<std::uint64_t> ticks_{0};  // logical serial clock
  mutable std::mutex registry_mutex_;  // thread states + region windows
  mutable std::vector<std::unique_ptr<ThreadState>> threads_;
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>>
      region_windows_;  // (region id, base tick), most recent last
};

/// RAII span; spans on one thread must close in reverse opening order.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, Tracer& tracer = Tracer::global())
      : tracer_(&tracer), id_(tracer.begin_span(std::move(name))) {}
  ~TraceSpan() { tracer_->end_span(id_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Pool-hook target: records the (region, chunk, chunk count) context the
/// calling thread is executing, so logical-clock tracers can key tick
/// windows by chunk instead of by thread. Installed into
/// support::PoolHooks::on_chunk_run by MetricsRegistry::global(); not for
/// direct use.
void trace_note_chunk_run(std::uint64_t region_id, std::size_t chunk,
                          std::size_t chunks, bool entering);

/// RAII wall-clock timer; observes elapsed seconds into the histogram on
/// destruction unless cancelled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink)
      : sink_(&sink), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(MetricsRegistry& registry, const std::string& histogram_name)
      : ScopedTimer(registry.histogram(histogram_name)) {}
  ~ScopedTimer() {
    if (armed_) sink_->observe(elapsed_seconds());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Do not record on destruction (e.g. the measured phase failed).
  void cancel() { armed_ = false; }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
  bool armed_ = true;
};

/// Wall-clock stopwatch for reported runtimes (a table's "seconds"
/// column). Diagnostics only: no result may branch on it.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pitfalls::obs
