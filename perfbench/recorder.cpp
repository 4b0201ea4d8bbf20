#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

// The benchmark's clock. Its readings are the benchmark's output and never
// feed a result the program computes, hence the wallclock tags.
double now_s() {
  static const auto epoch =
      std::chrono::steady_clock::now();  // lint:wallclock-ok
  return std::chrono::duration<double>(  // lint:wallclock-ok
             std::chrono::steady_clock::now() - epoch)  // lint:wallclock-ok
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

std::ptrdiff_t Recorder::open(const char* name, std::uint64_t op,
                              std::ptrdiff_t parent) {
  if (!enabled_) return -1;
  const double now = now_s();
  return add(name, now, now, op, parent);
}

void Recorder::close_at(std::ptrdiff_t index, double end) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::ptrdiff_t Recorder::add(const char* name, double start, double end,
                             std::uint64_t op, std::ptrdiff_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, op});
  return static_cast<std::ptrdiff_t>(spans_.size()) - 1;
}

void Recorder::reset_obs() {
  if (!enabled_) return;
  pitfalls::obs::Tracer::global().clear();
  obs_epoch_ = now_s();
}

void Recorder::import_obs(std::ptrdiff_t parent, std::uint64_t op) {
  if (!enabled_) return;
  const std::vector<pitfalls::obs::TraceEvent> events =
      pitfalls::obs::Tracer::global().events();
  // Event ids are dense snapshot positions; map each span to its slot
  // first, then resolve parents (a parent may sort after a child that
  // started at the same instant).
  std::vector<std::ptrdiff_t> slot(events.size(), -1);
  const std::size_t base = spans_.size();
  for (const auto& event : events) {
    if (event.kind != pitfalls::obs::TraceEventKind::kSpan) continue;
    slot[event.id] = static_cast<std::ptrdiff_t>(spans_.size());
    const double start = obs_epoch_ + event.start_seconds;
    spans_.push_back(
        Span{event.name, start, start + event.duration_seconds, parent, op});
  }
  for (const auto& event : events) {
    if (event.kind != pitfalls::obs::TraceEventKind::kSpan ||
        event.parent < 0)
      continue;
    const std::ptrdiff_t own = slot[event.id];
    const std::ptrdiff_t up = slot[static_cast<std::size_t>(event.parent)];
    if (own >= 0 && up >= 0 && static_cast<std::size_t>(up) >= base)
      spans_[static_cast<std::size_t>(own)].parent = up;
  }
}

std::vector<double> Recorder::self_by_span() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::vector<double> self(spans_.size());
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    covered.clear();
    for (const std::size_t child : children[i]) {
      const double lo = std::max(span.start, spans_[child].start);
      const double hi = std::min(span.end, spans_[child].end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_s = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      union_s += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = span.end - span.start - union_s;
  }
  return self;
}

std::map<std::string, Recorder::Self> Recorder::self_times() const {
  const std::vector<double> self = self_by_span();
  std::map<std::string, Self> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Self& entry = out[spans_[i].name];
    entry.self_s += self[i];
    entry.total_s += spans_[i].end - spans_[i].start;
    ++entry.count;
  }
  return out;
}

}  // namespace perfbench
