// Streaming (non-terminal) observability reporter — DESIGN.md §16.
//
// BenchReporter is terminal: it accumulates tables and writes one JSON
// document at finish(). A long-running service never reaches finish(), so
// the serve plane needs the dual: StreamingReporter renders one complete
// JSON document per call, while the process keeps running, and the caller
// writes it (the serve daemon onto its wire, so obs lines interleave with
// protocol traffic). Each document carries the *deltas* of the global
// counter registry, filtered to caller-chosen name prefixes. Deltas make
// the stream composable: each line carries exactly what happened since
// the last emit, so a reader can fold them without knowing process
// history, and a byte-comparison of two streams compares per-window work,
// not absolute counter positions.
//
// Determinism: the reporter emits counters only (never gauges/histograms —
// those carry wall-clock and pool-size values) and only under the given
// prefixes, so a caller that restricts itself to deterministic counter
// families gets a byte-identical stream for any PITFALLS_THREADS.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace pitfalls::obs {

/// Incremental counter-delta reporter over MetricsRegistry::global().
class StreamingReporter {
 public:
  /// Counters whose name starts with any of `prefixes` are streamed; the
  /// baseline is the registry position at construction, so the first emit
  /// reports only work done after the reporter existed.
  explicit StreamingReporter(std::vector<std::string> prefixes);

  /// The line {"type":"obs","scope":<scope>,"counters":{name:delta,...}}
  /// over every in-prefix counter that changed since the previous emit;
  /// empty when no counter moved.
  std::string emit_delta(std::string_view scope);

 private:
  bool in_scope(const std::string& name) const;

  std::vector<std::string> prefixes_;
  std::map<std::string, std::uint64_t> last_;
};

}  // namespace pitfalls::obs
