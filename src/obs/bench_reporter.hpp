// Shared bench harness: every bench main constructs a BenchReporter from its
// argv, routes table printing through print() (byte-identical ASCII — it
// delegates to Table::print), and ends with `return reporter.finish();`.
// Only deterministic cells belong in a recorded table or note: the
// bench_smoke ctest requires them to equal the bench's committed baseline
// (bench/baselines/). Run-dependent numbers (timings, thread counts) go to
// stdout through Table::print directly, or into the metrics registry.
//
// Flags understood (anything else warns on stderr and is ignored):
//   --json [path]    also write a machine-readable BENCH_<name>.json
//                    (default path BENCH_<name>.json in the CWD) holding the
//                    table rows, a metrics-registry snapshot (wall-clock
//                    histograms + oracle query counters), the trace-span
//                    tree, and free-form notes.
//   --json=path      same, explicit path.
//   --trace [path]   also export the global tracer as Chrome/Perfetto
//                    trace-event JSON (default path TRACE_<name>.json),
//                    loadable in chrome://tracing / ui.perfetto.dev.
//   --trace=path     same, explicit path.
//   --smoke          the bench should substitute its tiny parameter set
//                    (query via smoke()) — used by the bench_smoke ctest.
//   --checkpoint [path]  checkpoint progress into a crash-safe snapshot
//                    (default path CKPT_<name>.snap), ignoring any existing
//                    snapshot (fresh run). Which benches honour the flag is
//                    up to the bench (checkpoint-aware benches document it).
//   --checkpoint=path    same, explicit path.
//   --resume         checkpoint as above (at the --checkpoint path, else the
//                    default), but first load the snapshot when present and
//                    valid — the continued run is byte-identical to an
//                    uninterrupted one; a corrupt snapshot degrades to a
//                    clean restart (store.snapshot.corrupt metric).
//
// JSON schema (schema_version 1):
//   { "schema_version": 1, "bench": str, "smoke": bool,
//     "wall_seconds": num, "notes": {str: str|num},
//     "tables": [{"title": str, "headers": [str], "rows": [[str]]}],
//     "metrics": {"counters": {str: num}, "gauges": {str: num},
//                 "histograms": {str: {count,total,mean,min,p50,p95,max}}},
//     "trace": [{name,kind,id,parent,depth,track,start_seconds,
//                duration_seconds,value?}] }
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/table.hpp"

namespace pitfalls::obs {

class BenchReporter {
 public:
  /// `name` is the bench's identity ("table1_bounds" for
  /// bench_table1_bounds); it names the default output file.
  BenchReporter(std::string name, int argc, char** argv);

  const std::string& name() const { return name_; }
  bool smoke() const { return smoke_; }
  bool json_enabled() const { return !json_path_.empty(); }
  bool trace_enabled() const { return !trace_path_.empty(); }

  /// --checkpoint or --resume was given (checkpoint_path() is set).
  bool checkpoint_enabled() const { return !checkpoint_path_.empty(); }
  /// --resume: load an existing snapshot instead of starting fresh.
  bool resume() const { return resume_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }

  /// Print the table exactly as Table::print would, and record its cells
  /// for the JSON report.
  void print(std::ostream& os, const support::Table& table,
             const std::string& title = "");

  /// Attach a scalar to the report's "notes" object (insertion order).
  void note(const std::string& name, const std::string& text);
  void note(const std::string& name, double number);

  /// Write the JSON report if --json was requested. Returns the bench's
  /// exit code: 0, or 1 when the report could not be written.
  int finish();

 private:
  struct RecordedTable {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Note {
    std::string name;
    bool numeric;
    std::string text;
    double number;
  };

  std::string name_;
  std::string json_path_;
  std::string trace_path_;
  std::string checkpoint_path_;
  bool resume_ = false;
  bool smoke_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<RecordedTable> tables_;
  std::vector<Note> notes_;
};

}  // namespace pitfalls::obs
