// The observability layer: JSON writer/parser, metrics registry, trace
// spans, oracle query accounting, CSV export and the bench reporter's
// JSON files.
#include <cstdio>
#include <fstream>  // lint:raw-io-ok (tests read back reporter artefacts)
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "boolfn/boolean_function.hpp"
#include "ml/oracle.hpp"
#include "obs/bench_reporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"

namespace {

using namespace pitfalls;
using obs::JsonValue;
using obs::JsonWriter;
using support::BitVec;
using support::Table;

// ------------------------------------------------------------- JSON writer

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonWriter::escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // UTF-8 bytes pass through untouched.
  EXPECT_EQ(JsonWriter::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeQuotedMarkers) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(1.5)
      .end_array();
  EXPECT_EQ(w.str(), "[\"inf\",\"-inf\",\"nan\",1.5]");
}

TEST(JsonWriterTest, ManagesCommasAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(true).null_value().end_array();
  w.key("c").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[true,null],\"c\":{}}");
  EXPECT_EQ(std::move(w).str(), "{\"a\":1,\"b\":[true,null],\"c\":{}}");
}

TEST(JsonWriterTest, RejectsMalformedDocuments) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::invalid_argument);  // unclosed container
    EXPECT_THROW(std::move(w).str(), std::invalid_argument);
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::invalid_argument);  // value without key
  }
  {
    JsonWriter w;
    EXPECT_THROW(w.end_object(), std::invalid_argument);
  }
}

// ------------------------------------------------------------- JSON parser

TEST(JsonParserTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("bench \"x\"\n");
  w.key("pi").value(3.25);
  w.key("n").value(std::uint64_t{42});
  w.key("ok").value(false);
  w.key("rows").begin_array().value("a,b").value("-inf").end_array();
  w.end_object();

  const JsonValue doc = JsonValue::parse(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->string_value, "bench \"x\"\n");
  EXPECT_DOUBLE_EQ(doc.find("pi")->number_value, 3.25);
  EXPECT_DOUBLE_EQ(doc.find("n")->number_value, 42.0);
  EXPECT_FALSE(doc.find("ok")->bool_value);
  ASSERT_EQ(doc.find("rows")->items.size(), 2u);
  EXPECT_EQ(doc.find("rows")->items[1].string_value, "-inf");
}

TEST(JsonParserTest, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  const JsonValue v = JsonValue::parse("\"\\u0041\\u00e9\\u20ac\"");
  EXPECT_EQ(v.string_value, "A\xc3\xa9\xe2\x82\xac");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  const JsonValue emoji = JsonValue::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(emoji.string_value, "\xf0\x9f\x98\x80");
}

TEST(JsonParserTest, RefusesNestingDeeperThanTheDepthGuard) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue deepest = JsonValue::parse(arrays(JsonValue::kMaxDepth));
  EXPECT_TRUE(deepest.is_array());
  EXPECT_THROW(JsonValue::parse(arrays(JsonValue::kMaxDepth + 1)),
               std::runtime_error);
  // Far past the guard: a parse error, not a stack overflow.
  EXPECT_THROW(JsonValue::parse(arrays(1'000'000)), std::runtime_error);
  std::string objects;
  for (std::size_t i = 0; i <= JsonValue::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(JsonValue::kMaxDepth + 1, '}');
  EXPECT_THROW(JsonValue::parse(objects), std::runtime_error);
}

TEST(JsonTokenizerTest, YieldsViewsNumbersAndSkipsDeepValuesIteratively) {
  using Token = obs::JsonTokenizer::Token;
  const std::string deep =
      std::string(1'000'000, '[') + std::string(1'000'000, ']');
  const std::string text =
      R"({"plain":"abc","esc\u0041":"x\ny","n":-2.5e1,"deep":)" + deep +
      R"(,"t":[true,false,null]})";
  obs::JsonTokenizer tokens(text);
  EXPECT_EQ(tokens.next(), Token::kBeginObject);
  EXPECT_EQ(tokens.next(), Token::kName);
  EXPECT_EQ(tokens.text(), "plain");
  EXPECT_EQ(tokens.next(), Token::kString);
  // An escape-free string is a view into the document itself.
  EXPECT_EQ(tokens.text().data(), text.data() + text.find("abc"));
  EXPECT_EQ(tokens.next(), Token::kName);
  EXPECT_EQ(tokens.text(), "escA");
  EXPECT_EQ(tokens.next(), Token::kString);
  EXPECT_EQ(tokens.text(), "x\ny");
  EXPECT_EQ(tokens.next(), Token::kName);
  EXPECT_EQ(tokens.next(), Token::kNumber);
  EXPECT_EQ(tokens.number(), -25.0);
  EXPECT_EQ(tokens.next(), Token::kName);
  EXPECT_EQ(tokens.text(), "deep");
  const Token first = tokens.next();
  EXPECT_EQ(tokens.depth(), 2u);
  tokens.skip(first);
  EXPECT_EQ(tokens.depth(), 1u);
  EXPECT_EQ(tokens.next(), Token::kName);
  EXPECT_EQ(tokens.next(), Token::kBeginArray);
  EXPECT_EQ(tokens.next(), Token::kTrue);
  EXPECT_EQ(tokens.next(), Token::kFalse);
  EXPECT_EQ(tokens.next(), Token::kNull);
  EXPECT_EQ(tokens.next(), Token::kEndArray);
  EXPECT_EQ(tokens.next(), Token::kEndObject);
  EXPECT_EQ(tokens.next(), Token::kEnd);
  EXPECT_EQ(tokens.next(), Token::kEnd);

  // skip() checks the grammar of what it skips.
  obs::JsonTokenizer broken(R"({"a":[1,{"b":]}]})");
  EXPECT_EQ(broken.next(), Token::kBeginObject);
  EXPECT_EQ(broken.next(), Token::kName);
  EXPECT_THROW(broken.skip(broken.next()), std::runtime_error);
}

TEST(JsonParserTest, ThrowsOnMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);  // trailing
  EXPECT_THROW(JsonValue::parse("truth"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"\\ude00\""), std::runtime_error);
}

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, HistogramSummaryOnEmptySingleAndSkewedData) {
  obs::Histogram h;
  const auto empty = h.summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p95, 0.0);

  h.observe(7.0);
  const auto single = h.summary();
  EXPECT_EQ(single.count, 1u);
  EXPECT_EQ(single.min, 7.0);
  EXPECT_EQ(single.p50, 7.0);
  EXPECT_EQ(single.p95, 7.0);
  EXPECT_EQ(single.max, 7.0);

  h.reset();
  for (int i = 0; i < 9; ++i) h.observe(1.0);
  h.observe(100.0);  // one outlier dominates mean and p95 but not p50
  const auto skew = h.summary();
  EXPECT_EQ(skew.count, 10u);
  EXPECT_DOUBLE_EQ(skew.mean, 10.9);
  EXPECT_EQ(skew.p50, 1.0);
  EXPECT_EQ(skew.p95, 100.0);
  EXPECT_EQ(skew.max, 100.0);
}

TEST(MetricsTest, NearestRankPercentiles) {
  obs::Histogram h;
  for (const double v : {40.0, 10.0, 30.0, 20.0}) h.observe(v);
  const auto s = h.summary();
  // nearest-rank: sorted[ceil(q * 4) - 1] over {10,20,30,40}.
  EXPECT_EQ(s.p50, 20.0);
  EXPECT_EQ(s.p95, 40.0);
  EXPECT_EQ(s.min, 10.0);
  EXPECT_EQ(s.max, 40.0);
}

TEST(MetricsTest, RegistryResetValuesKeepsReferencesAlive) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  obs::Gauge& g = registry.gauge("g");
  obs::Histogram& h = registry.histogram("h");
  c.add(5);
  g.set(2.5);
  h.observe(1.0);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The same reference is still wired to the same name.
  c.add(1);
  EXPECT_EQ(registry.counter("c").value(), 1u);
}

TEST(MetricsTest, SnapshotIsDeterministicAcrossRegistrationOrder) {
  obs::MetricsRegistry a;
  a.counter("zeta").add(3);
  a.counter("alpha").add(1);
  a.gauge("mid").set(0.5);
  a.histogram("t").observe(2.0);

  obs::MetricsRegistry b;
  b.histogram("t").observe(2.0);
  b.gauge("mid").set(0.5);
  b.counter("alpha").add(1);
  b.counter("zeta").add(3);

  EXPECT_EQ(a.snapshot_json(), b.snapshot_json());

  const JsonValue doc = JsonValue::parse(a.snapshot_json());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members.size(), 2u);
  EXPECT_EQ(counters->members[0].first, "alpha");  // name-sorted
  EXPECT_EQ(counters->members[1].first, "zeta");
  const JsonValue* hist = doc.find("histograms")->find("t");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number_value, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("p50")->number_value, 2.0);
}

// ------------------------------------------------------------------- traces

TEST(TraceTest, NestedSpansRecordParentDepthAndOrdering) {
  obs::Tracer tracer;
  {
    obs::TraceSpan outer("outer", tracer);
    EXPECT_EQ(tracer.open_spans(), 1u);
    {
      obs::TraceSpan inner("inner", tracer);
      EXPECT_EQ(tracer.open_spans(), 2u);
      obs::TraceSpan leaf("leaf", tracer);
      EXPECT_EQ(tracer.open_spans(), 3u);
    }
    {
      obs::TraceSpan sibling("sibling", tracer);
    }
  }
  EXPECT_EQ(tracer.open_spans(), 0u);

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Snapshot order: sorted by start time, ids renumbered 0..n-1, so
  // parents precede their children.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "leaf");
  EXPECT_EQ(events[3].name, "sibling");

  const auto& outer = events[0];
  const auto& inner = events[1];
  const auto& leaf = events[2];
  const auto& sibling = events[3];
  EXPECT_EQ(outer.id, 0u);
  EXPECT_EQ(sibling.id, 3u);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent, static_cast<std::ptrdiff_t>(outer.id));
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(leaf.parent, static_cast<std::ptrdiff_t>(inner.id));
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(sibling.parent, static_cast<std::ptrdiff_t>(outer.id));

  for (const auto& e : events) {
    EXPECT_GE(e.start_seconds, 0.0);
    EXPECT_GE(e.duration_seconds, 0.0);
  }
  // A child starts no earlier and ends no later than its parent.
  EXPECT_GE(inner.start_seconds, outer.start_seconds);
  EXPECT_LE(inner.start_seconds + inner.duration_seconds,
            outer.start_seconds + outer.duration_seconds + 1e-9);

  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TraceTest, WriteJsonEmitsOneObjectPerEvent) {
  obs::Tracer tracer;
  {
    obs::TraceSpan a("a", tracer);
    obs::TraceSpan b("b", tracer);
  }
  JsonWriter w;
  tracer.write_json(w);
  const JsonValue doc = JsonValue::parse(w.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.items.size(), 2u);
  // Start-sorted: the enclosing span "a" first, then its child "b".
  EXPECT_EQ(doc.items[0].find("name")->string_value, "a");
  EXPECT_EQ(doc.items[1].find("name")->string_value, "b");
  EXPECT_DOUBLE_EQ(doc.items[0].find("parent")->number_value, -1.0);
  EXPECT_DOUBLE_EQ(doc.items[1].find("parent")->number_value,
                   doc.items[0].find("id")->number_value);
  EXPECT_EQ(doc.items[0].find("kind")->string_value, "span");
}

TEST(TraceTest, ScopedTimerObservesUnlessCancelled) {
  obs::Histogram h;
  {
    obs::ScopedTimer t(h);
    EXPECT_GE(t.elapsed_seconds(), 0.0);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.summary().min, 0.0);
  {
    obs::ScopedTimer t(h);
    t.cancel();
  }
  EXPECT_EQ(h.count(), 1u);
}

// --------------------------------------------------------- oracle counting

TEST(OracleCountingTest, QueriesFeedTheGlobalRegistry) {
  const boolfn::FunctionView constant(
      3, [](const BitVec&) { return +1; }, "const");
  obs::Counter& global =
      obs::MetricsRegistry::global().counter("oracle.membership_queries");
  const std::uint64_t before = global.value();
  ml::FunctionMembershipOracle oracle(constant);
  BitVec x(3);
  oracle.query_pm(x);
  oracle.query_pm(x);
  EXPECT_EQ(global.value(), before + 2);
}

// -------------------------------------------------------------- CSV export

TEST(TableCsvTest, QuotesDelimitersQuotesAndNewlines) {
  Table table({"name", "value, unit", "note"});
  table.add_row({"plain", "1", "ok"});
  table.add_row({"com,ma", "say \"hi\"", "two\nlines"});
  EXPECT_EQ(table.to_csv(),
            "name,\"value, unit\",note\n"
            "plain,1,ok\n"
            "\"com,ma\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

// ---------------------------------------------------------- bench reporter

TEST(BenchReporterTest, FinishWritesSchemaV1Json) {
  const std::string path = testing::TempDir() + "/BENCH_obs_test.json";
  std::remove(path.c_str());

  const std::string json_flag = "--json=" + path;
  const char* argv[] = {"bench_obs_test", json_flag.c_str(), "--smoke"};
  obs::BenchReporter reporter("obs_test", 3, const_cast<char**>(argv));
  EXPECT_TRUE(reporter.smoke());
  EXPECT_TRUE(reporter.json_enabled());

  Table table({"k", "accuracy [%]"});
  table.add_row({"1", "99.0"});
  table.add_row({"2", "75.5"});
  std::ostringstream sink;
  reporter.print(sink, table, "-- demo --");
  // print() emits exactly Table::print's bytes.
  std::ostringstream expected;
  table.print(expected, "-- demo --");
  EXPECT_EQ(sink.str(), expected.str());

  reporter.note("n", 14.0);
  reporter.note("mode", "unit-test");
  ASSERT_EQ(reporter.finish(), 0);

  std::ifstream in(path);  // lint:raw-io-ok
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());

  EXPECT_DOUBLE_EQ(doc.find("schema_version")->number_value, 1.0);
  EXPECT_EQ(doc.find("bench")->string_value, "obs_test");
  EXPECT_TRUE(doc.find("smoke")->bool_value);
  EXPECT_GE(doc.find("wall_seconds")->number_value, 0.0);

  const JsonValue* notes = doc.find("notes");
  ASSERT_NE(notes, nullptr);
  EXPECT_DOUBLE_EQ(notes->find("n")->number_value, 14.0);
  EXPECT_EQ(notes->find("mode")->string_value, "unit-test");

  const JsonValue* tables = doc.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items.size(), 1u);
  const JsonValue& recorded = tables->items[0];
  EXPECT_EQ(recorded.find("title")->string_value, "-- demo --");
  ASSERT_EQ(recorded.find("headers")->items.size(), 2u);
  EXPECT_EQ(recorded.find("headers")->items[1].string_value, "accuracy [%]");
  ASSERT_EQ(recorded.find("rows")->items.size(), 2u);
  EXPECT_EQ(recorded.find("rows")->items[1].items[1].string_value, "75.5");

  // finish() pre-registers the oracle counters: the core key set is shared
  // by every bench JSON, oracle-driven or not.
  const JsonValue* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("oracle.membership_queries"), nullptr);
  EXPECT_NE(counters->find("oracle.equivalence_calls"), nullptr);

  ASSERT_NE(doc.find("trace"), nullptr);
  EXPECT_TRUE(doc.find("trace")->is_array());

  std::remove(path.c_str());
}

TEST(BenchReporterTest, ResumeOnlyAsksForALoadAndKeepsTheCheckpointPath) {
  struct Case {
    std::vector<const char*> args;
    std::string path;
    bool resume;
  };
  const std::vector<Case> cases = {
      {{"--checkpoint=x.snap", "--resume"}, "x.snap", true},
      {{"--resume", "--checkpoint=x.snap"}, "x.snap", true},
      {{"--checkpoint", "x.snap", "--resume"}, "x.snap", true},
      {{"--resume"}, "CKPT_obs_test.snap", true},
      {{"--checkpoint"}, "CKPT_obs_test.snap", false},
  };
  for (const Case& c : cases) {
    std::vector<const char*> argv = {"bench_obs_test"};
    std::string command_line = argv[0];
    for (const char* arg : c.args) {
      argv.push_back(arg);
      command_line += std::string(" ") + arg;
    }
    SCOPED_TRACE(command_line);
    const obs::BenchReporter reporter("obs_test",
                                      static_cast<int>(argv.size()),
                                      const_cast<char**>(argv.data()));
    EXPECT_TRUE(reporter.checkpoint_enabled());
    EXPECT_EQ(reporter.checkpoint_path(), c.path);
    EXPECT_EQ(reporter.resume(), c.resume);
  }
}

TEST(BenchReporterTest, NoJsonFlagWritesNothing) {
  const char* argv[] = {"bench_obs_test"};
  obs::BenchReporter reporter("obs_test_nojson", 1, const_cast<char**>(argv));
  EXPECT_FALSE(reporter.smoke());
  EXPECT_FALSE(reporter.json_enabled());
  EXPECT_EQ(reporter.finish(), 0);
  std::ifstream in("BENCH_obs_test_nojson.json");  // lint:raw-io-ok
  EXPECT_FALSE(in.good());
}

}  // namespace
