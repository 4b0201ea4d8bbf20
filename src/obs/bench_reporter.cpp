#include "obs/bench_reporter.hpp"

#include <fstream>
#include <iostream>
#include <string_view>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::obs {

namespace {

// Parses `--flag [path]` / `--flag=path` at argv[i] into `out`, stepping i
// past a path operand; an omitted or empty path means `fallback`. False
// when argv[i] is another argument.
bool path_flag(int argc, char** argv, int& i, std::string_view flag,
               const std::string& fallback, std::string& out) {
  const std::string_view arg = argv[i];
  if (arg == flag) {
    // Optional path operand; a following flag means "use the default".
    out = i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : fallback;
    return true;
  }
  if (arg.size() <= flag.size() || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=')
    return false;
  out = arg.substr(flag.size() + 1);
  if (out.empty()) out = fallback;
  return true;
}

}  // namespace

BenchReporter::BenchReporter(std::string name, int argc, char** argv)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  PITFALLS_REQUIRE(!name_.empty(), "bench reporter needs a bench name");
  PITFALLS_REQUIRE(argc == 0 || argv != nullptr,
                   "argv must be non-null when argc > 0");
  const std::string default_checkpoint_path = "CKPT_" + name_ + ".snap";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg == "--resume") {
      resume_ = true;
    } else if (!path_flag(argc, argv, i, "--json", "BENCH_" + name_ + ".json",
                          json_path_) &&
               !path_flag(argc, argv, i, "--trace",
                          "TRACE_" + name_ + ".json", trace_path_) &&
               !path_flag(argc, argv, i, "--checkpoint",
                          default_checkpoint_path, checkpoint_path_)) {
      std::cerr << "bench_" << name_ << ": ignoring unknown argument '" << arg
                << "' (known: --json [path], --json=path, --trace [path], "
                   "--trace=path, --checkpoint [path], --checkpoint=path, "
                   "--resume, --smoke)\n";
    }
  }
  if (resume_ && checkpoint_path_.empty())
    checkpoint_path_ = default_checkpoint_path;
}

void BenchReporter::print(std::ostream& os, const support::Table& table,
                          const std::string& title) {
  tables_.push_back({title, table.headers(), table.data()});
  table.print(os, title);
}

void BenchReporter::note(const std::string& name, const std::string& text) {
  notes_.push_back({name, false, text, 0.0});
}

void BenchReporter::note(const std::string& name, double number) {
  notes_.push_back({name, true, {}, number});
}

int BenchReporter::finish() {
  if (!trace_path_.empty() &&
      !export_chrome_trace(trace_path_, Tracer::global(), "bench_" + name_)) {
    std::cerr << "bench_" << name_ << ": cannot write chrome trace '"
              << trace_path_ << "'\n";
    return 1;
  }
  if (json_path_.empty()) return 0;

  // Pre-register the oracle query counters so every bench report exposes the
  // same core key set even when a bench never touches an oracle.
  auto& registry = MetricsRegistry::global();
  registry.counter("oracle.membership_queries");
  registry.counter("oracle.equivalence_calls");

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(std::int64_t{1});
  w.key("bench").value(name_);
  w.key("smoke").value(smoke_);
  w.key("wall_seconds").value(wall_seconds);
  w.key("notes").begin_object();
  for (const Note& n : notes_) {
    w.key(n.name);
    if (n.numeric)
      w.value(n.number);
    else
      w.value(n.text);
  }
  w.end_object();
  w.key("tables").begin_array();
  for (const RecordedTable& t : tables_) {
    w.begin_object();
    w.key("title").value(t.title);
    w.key("headers").begin_array();
    for (const auto& h : t.headers) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  registry.write_json(w);
  w.key("trace");
  Tracer::global().write_json(w);
  w.end_object();

  std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "bench_" << name_ << ": cannot open '" << json_path_
              << "' for writing\n";
    return 1;
  }
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::cerr << "bench_" << name_ << ": failed writing '" << json_path_
              << "'\n";
    return 1;
  }
  return 0;
}

}  // namespace pitfalls::obs
