// perfbench: the repository benchmark (README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs reps of one workload for about <s> seconds (at least kMinReps of
// each kind), checks every output, and prints as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, medians over reps. With --trace 1
// untraced and traced reps alternate; the metrics are the per-layer ones
// from the traced reps, and the spans go to
// .bench_build/perfbench-spans/<workload>.json. Journals and other scratch
// files live under .bench_build/perfbench-scratch while the run lasts. Both
// paths are relative to the working directory, the repository root.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "support/parallel.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinReps = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},     {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},     {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MB"},
};

// Every per-layer metric, printed on every workload (0 where the workload
// leaves the layer idle). Names and units match BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"serve.wire.parse_us", "us"},
    {"serve.wire.bytes_in", "B"},
    {"serve.fleet.acquire_us", "us"},
    {"serve.fleet.hit_ratio", "ratio"},
    {"serve.fleet.resident", "ratio"},
    {"serve.sched.auth_ms", "ms"},
    {"serve.sched.query_ms", "ms"},
    {"serve.sched.attack_ms", "ms"},
    {"serve.sched.wait_ms", "ms"},
    {"serve.sched.pool_busy_ratio", "ratio"},
    {"puf.eval_ns_per_crp", "ns"},
    {"puf.materialize_us", "us"},
    {"puf.collect_ms", "ms"},
    {"ml.robust.query_ns", "ns"},
    {"ml.robust.wasted_ratio", "ratio"},
    {"ml.logistic.fit_ms", "ms"},
    {"ml.xor.fit_ms", "ms"},
    {"ml.xor.iterations", "count"},
    {"ml.xor.us_per_iteration", "us"},
    {"store.flush_ms", "ms"},
    {"store.bytes_per_job", "B"},
    {"store.writes_per_job", "count"},
    {"sat.conflicts_per_key", "count"},
    {"sat.propagations_per_key", "count"},
    {"sat.decisions_per_key", "count"},
    {"sat.propagations_per_s", "1/s"},
    {"attack.dips_per_key", "count"},
    {"attack.ms_per_dip", "ms"},
    {"attack.verify_ms", "ms"},
    {"lock.lock_ms", "ms"},
    {"circuit.gen_ms", "ms"},
    {"support.pool.tasks_per_op", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.layer_coverage", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_lookup|serve_journaled|sat_keyrec|learning_curve "
               "--seed N --seconds S --trace 0|1\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed needs an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0.0)
        usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

std::unique_ptr<Workload> make_workload(const Options& options,
                                        const std::string& scratch) {
  if (options.workload == "serve_lookup")
    return make_serve_lookup(options.seed);
  if (options.workload == "serve_journaled")
    return make_serve_journaled(options.seed, scratch);
  if (options.workload == "sat_keyrec") return make_sat_keyrec(options.seed);
  if (options.workload == "learning_curve")
    return make_learning_curve(options.seed);
  usage(("unknown workload " + options.workload).c_str());
}

double rate(const RepStats& rep) {
  return rep.timed_s > 0.0 ? static_cast<double>(rep.ops) / rep.timed_s : 0.0;
}

double cpu_ms_per_op(const RepStats& rep) {
  return rep.ops > 0 ? rep.cpu_s * 1e3 / static_cast<double>(rep.ops) : 0.0;
}

template <typename Fn>
double median_of(const std::vector<RepStats>& reps, Fn fn) {
  std::vector<double> values;
  for (const RepStats& rep : reps) values.push_back(fn(rep));
  return median(values);
}

std::map<std::string, double> end_to_end(const std::vector<RepStats>& reps,
                                         double rss_mb) {
  std::map<std::string, double> out;
  out["setup_s"] = median_of(reps, [](const RepStats& r) { return r.setup_s; });
  out["ops_per_s"] = median_of(reps, rate);
  out["op_p50_ms"] = median_of(reps, [](const RepStats& r) {
    return percentile(r.latency_s, 0.5) * 1e3;
  });
  out["op_p90_ms"] = median_of(reps, [](const RepStats& r) {
    return percentile(r.latency_s, 0.9) * 1e3;
  });
  out["cpu_ms_per_op"] = median_of(reps, cpu_ms_per_op);
  out["peak_rss_mb"] = rss_mb;
  return out;
}

/// The op root above span `index`: spans named "op.*" are op roots.
std::ptrdiff_t op_root(const std::vector<Span>& spans, std::ptrdiff_t index) {
  while (index >= 0) {
    const Span& span = spans[static_cast<std::size_t>(index)];
    if (span.name.rfind("op.", 0) == 0) return index;
    index = span.parent;
  }
  return -1;
}

/// Prints self time per span name inside ops (as a share of op time) and
/// outside them (set-up and output checks); returns the share of op time
/// that child spans cover.
double print_layers(const Recorder& recorder, std::uint64_t ops) {
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<double> self = recorder.self_by_span();
  std::map<std::string, double> inside;
  std::map<std::string, double> outside;
  double op_total = 0.0;
  double op_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::ptrdiff_t root = op_root(spans, static_cast<std::ptrdiff_t>(i));
    if (root == static_cast<std::ptrdiff_t>(i)) {
      op_total += spans[i].end - spans[i].start;
      op_self += self[i];
    }
    (root >= 0 ? inside : outside)[spans[i].name] += self[i];
  }
  const double per_op = ops > 0 ? 1e3 / static_cast<double>(ops) : 0.0;
  std::printf("layer self time inside ops (ms per op, share of op time):\n");
  for (const auto& [name, seconds] : inside)
    std::printf("  %-28s %10.4f  %6.2f%%\n", name.c_str(), seconds * per_op,
                op_total > 0.0 ? 100.0 * seconds / op_total : 0.0);
  std::printf("outside ops (set-up, output checks; ms per op):\n");
  for (const auto& [name, seconds] : outside)
    std::printf("  %-28s %10.4f\n", name.c_str(), seconds * per_op);
  return op_total > 0.0 ? 1.0 - op_self / op_total : 0.0;
}

void write_spans(const Recorder& recorder, const std::string& path) {
  pitfalls::obs::JsonWriter writer;
  writer.begin_array();
  for (const Span& span : recorder.spans()) {
    writer.begin_object();
    writer.key("name").value(span.name);
    writer.key("start_us").value(span.start * 1e6);
    writer.key("end_us").value(span.end * 1e6);
    writer.key("parent").value(static_cast<std::int64_t>(span.parent));
    writer.key("op").value(span.op);
    writer.end_object();
  }
  writer.end_array();
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  pitfalls::support::snapshot::write_file_atomic(path, writer.str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  // Fixed pool size whatever the environment says: the measurements are
  // taken on a shared four-core machine.
  setenv("PITFALLS_THREADS", "2", 1);

  const std::string scratch =
      ".bench_build/perfbench-scratch/" + options.workload + "-" +
      std::to_string(static_cast<unsigned long long>(getpid()));
  std::unique_ptr<Workload> workload = make_workload(options, scratch);
  std::printf("%s seed=%llu threads=%zu\n", workload->describe().c_str(),
              static_cast<unsigned long long>(options.seed),
              pitfalls::support::pool_thread_count());

  Recorder untraced(false);
  Recorder traced(true);
  std::vector<RepStats> plain;
  std::vector<RepStats> traced_reps;
  double rss_mb = 0.0;
  double longest_rep = 0.0;
  const double begin = now_s();
  for (std::size_t rep = 0;; ++rep) {
    const bool enough_reps =
        plain.size() >= kMinReps &&
        (!options.trace || traced_reps.size() >= kMinReps);
    // No rep starts that would end past the deadline, so a run lasts about
    // --seconds whatever one rep costs.
    const double rep_start = now_s();
    if (enough_reps && rep_start - begin + longest_rep >= options.seconds)
      break;
    const bool trace_this = options.trace && rep % 2 == 1;
    RepStats stats = workload->run_rep(trace_this ? traced : untraced);
    longest_rep = std::max(longest_rep, now_s() - rep_start);
    std::fprintf(stderr,
                 "rep %zu%s: setup %.4f s, %.1f ops/s, p50 %.3f ms, "
                 "cpu %.3f ms/op, failed %llu\n",
                 rep, trace_this ? " (traced)" : "", stats.setup_s,
                 rate(stats), percentile(stats.latency_s, 0.5) * 1e3,
                 cpu_ms_per_op(stats),
                 static_cast<unsigned long long>(stats.failed));
    (trace_this ? traced_reps : plain).push_back(std::move(stats));
    // Peak RSS after a fixed amount of work: later reps may still grow the
    // library's bounded trace rings, and their count depends on speed.
    if (!trace_this && plain.size() == kMinReps) rss_mb = peak_rss_mb();
  }
  std::filesystem::remove_all(scratch);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t traced_ops = 0;
  bool digests_agree = true;
  const std::uint32_t digest = plain.front().digest;
  for (const auto* reps : {&plain, &traced_reps})
    for (const RepStats& rep : *reps) {
      attempted += rep.ops;
      failed += rep.failed;
      digests_agree = digests_agree && rep.digest == digest;
    }
  for (const RepStats& rep : traced_reps) traced_ops += rep.ops;
  std::printf(
      "reps=%zu traced_reps=%zu ops_per_rep=%llu attempted=%llu "
      "failed=%llu digest=%08x%s\n",
      plain.size(), traced_reps.size(),
      static_cast<unsigned long long>(plain.front().ops),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), digest,
      digests_agree ? "" : " (DIFFERS BETWEEN REPS)");

  std::map<std::string, double> values;
  const MetricDef* defs = kEndToEnd;
  std::size_t def_count = std::size(kEndToEnd);
  if (!options.trace) {
    values = end_to_end(plain, rss_mb);
  } else {
    values = workload->layer_metrics(traced);
    const double plain_rate = median_of(plain, rate);
    const double traced_rate = median_of(traced_reps, rate);
    values["obs.trace_overhead"] =
        traced_rate > 0.0 ? plain_rate / traced_rate - 1.0 : 0.0;
    values["obs.layer_coverage"] = print_layers(traced, traced_ops);
    write_spans(traced,
                ".bench_build/perfbench-spans/" + options.workload + ".json");
    defs = kPerLayer;
    def_count = std::size(kPerLayer);
  }

  pitfalls::obs::JsonWriter writer;
  writer.begin_object();
  writer.key("correct").value(failed == 0 && digests_agree);
  writer.key("attempted").value(attempted);
  writer.key("failed").value(failed);
  writer.key("metrics").begin_object();
  for (std::size_t i = 0; i < def_count; ++i) {
    writer.key(defs[i].name).begin_object();
    writer.key("value").value(values[defs[i].name]);
    writer.key("unit").value(defs[i].unit);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  std::printf("%s\n", writer.str().c_str());
  return 0;
}
