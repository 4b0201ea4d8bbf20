// Shared pieces of the repository benchmark (README.md in this directory):
// the benchmark clock, the per-rep result every workload returns, the span
// recorder behind the traced run, and the workload interface.
//
// A run is a sequence of reps. Every rep of a workload does identical,
// fixed work: it sets up from scratch, runs a fixed number of ops, and
// checks their outputs. main.cpp repeats reps until the requested seconds
// are spent and reports medians over reps, so a faster build finishes more
// reps but never different ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock seconds since the first call (the benchmark's own clock;
/// the library's obs tracer is re-based onto it, see Recorder::import_obs).
double now_s();

/// Process user+sys CPU seconds (getrusage, all threads).
double cpu_s();

/// Peak resident set of the process in MB (ru_maxrss).
double peak_rss_mb();

/// Nearest-rank percentile of `samples` (q in [0, 1]); 0 for none.
double percentile(std::vector<double> samples, double q);

/// Median of `samples` (mean of the two middle values for an even count).
double median(std::vector<double> samples);

/// What one rep measured.
struct RepStats {
  double setup_s = 0.0;   // everything before the first timed op
  double timed_s = 0.0;   // wall time of the timed ops
  double cpu_s = 0.0;     // process CPU over the timed ops
  std::vector<double> latency_s;  // one sample per timed op
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint32_t digest = 0;  // crc32 over the rep's deterministic outputs
};

/// One recorded interval on the benchmark clock.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::ptrdiff_t parent = -1;  // index into Recorder::spans(), -1 = root
  std::uint64_t op = 0;        // op id; spans of one op share it
};

/// The traced run's span store. Spans stay in memory; main.cpp folds them
/// into self times and writes them out at exit. A disabled recorder ignores
/// every call, so the untraced path pays one branch per boundary.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span now; returns its index (or -1 when disabled).
  std::ptrdiff_t open(const char* name, std::uint64_t op,
                      std::ptrdiff_t parent = -1);
  /// Close a span opened by open() now, or at `end`.
  void close(std::ptrdiff_t index) { close_at(index, now_s()); }
  void close_at(std::ptrdiff_t index, double end);
  /// Record an interval measured elsewhere.
  std::ptrdiff_t add(const char* name, double start, double end,
                     std::uint64_t op, std::ptrdiff_t parent = -1);

  /// Drop the library tracer's events and re-base its epoch onto now_s();
  /// call before the calls whose library spans import_obs() should collect.
  void reset_obs();
  /// Import the library tracer's completed spans since reset_obs(): the
  /// spans the program already records (serve.job.*, attack.sat_attack.*,
  /// ...). Their own parent links are kept; their roots are attached to
  /// `parent`.
  void import_obs(std::ptrdiff_t parent, std::uint64_t op);

  const std::vector<Span>& spans() const { return spans_; }

  struct Self {
    double self_s = 0.0;  // duration minus the union of child intervals
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  /// Self time of every span, by index.
  std::vector<double> self_by_span() const;
  /// Self time per span name.
  std::map<std::string, Self> self_times() const;

 private:
  bool enabled_;
  double obs_epoch_ = 0.0;
  std::vector<Span> spans_;
};

/// A workload: one kind of op, set up and run one fixed-size rep at a time.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Set up from scratch, run the rep's ops, check their outputs. With an
  /// enabled recorder, also record spans and accumulate per-layer tallies.
  virtual RepStats run_rep(Recorder& recorder) = 0;

  /// Per-layer metrics of the traced reps, by metric name, from the spans
  /// in `recorder` and the tallies the workload kept while it was enabled.
  /// Layers the workload does not exercise may be omitted (reported as 0).
  virtual std::map<std::string, double> layer_metrics(
      const Recorder& recorder) const = 0;

  /// One line describing the fixed work of a rep.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_serve_lookup(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_journaled(std::uint64_t seed,
                                               const std::string& scratch_dir);
std::unique_ptr<Workload> make_sat_keyrec(std::uint64_t seed);
std::unique_ptr<Workload> make_learning_curve(std::uint64_t seed);

}  // namespace perfbench
