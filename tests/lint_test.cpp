// Tests for pitfalls-lint: the stripper, each rule against known-good and
// known-bad fixtures under tests/lint_fixtures/, suppression handling, and
// the cross-file behaviours (sibling guards, header-scoped container names).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "lexer.hpp"
#include "linter.hpp"
#include "sarif.hpp"

namespace {

using pitfalls::lint::SourceFile;
using pitfalls::lint::Violation;
using pitfalls::lint::load_file;
using pitfalls::lint::run_lint;
using pitfalls::lint::strip_comments_and_strings;

std::string fixture(const std::string& name) {
  return std::string(LINT_FIXTURES_DIR) + "/" + name;
}

std::vector<Violation> lint_fixture(const std::string& name) {
  return run_lint({load_file(fixture(name))});
}

// Several rules are path-scoped (require-guard and scalar-query to src/,
// the layering DAG to src/<module>); the fixtures live under
// tests/lint_fixtures/ on disk, so present them under an in-scope path.
std::vector<Violation> lint_fixture_as(const std::string& name,
                                       const std::string& path) {
  SourceFile f = load_file(fixture(name));
  f.path = path;
  return run_lint({f});
}

std::vector<std::size_t> lines_of(const std::vector<Violation>& vs,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const auto& v : vs)
    if (v.rule == rule) lines.push_back(v.line);
  return lines;
}

// ------------------------------------------------------------- stripper

TEST(LintStrip, RemovesLineAndBlockComments) {
  const std::string out = strip_comments_and_strings(
      "int a; // std::mt19937 here\nint b; /* rand() */ int c;\n");
  EXPECT_EQ(out.find("mt19937"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
}

TEST(LintStrip, PreservesLineStructure) {
  const std::string src = "a /* multi\nline\ncomment */ b\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
}

TEST(LintStrip, BlanksStringAndCharLiterals) {
  const std::string out = strip_comments_and_strings(
      "const char* s = \"std::chrono inside\"; char c = 'x';\n");
  EXPECT_EQ(out.find("chrono"), std::string::npos);
  EXPECT_EQ(out.find('x'), std::string::npos);
  EXPECT_NE(out.find("const char* s ="), std::string::npos);
}

TEST(LintStrip, HandlesEscapesAndRawStrings) {
  EXPECT_EQ(strip_comments_and_strings("auto s = \"a\\\"rand()\\\"b\";\n")
                .find("rand"),
            std::string::npos);
  EXPECT_EQ(strip_comments_and_strings("auto r = R\"(std::mt19937 \" ')\";\n")
                .find("mt19937"),
            std::string::npos);
}

// ------------------------------------------------------------------ rng

TEST(LintRng, FlagsEveryRawPrimitive) {
  EXPECT_EQ(lines_of(lint_fixture("bad_rng.cpp"), "rng"),
            (std::vector<std::size_t>{6, 7, 8, 9}));
}

TEST(LintRng, CleanFileWithProseOnlyMentionsPasses) {
  EXPECT_TRUE(lint_fixture("good_rng.cpp").empty());
}

TEST(LintRng, ExemptsTheRngWrapperItself) {
  const SourceFile f{"src/support/rng.hpp",
                     "#include <random>\nstd::mt19937_64 engine_;\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// ------------------------------------------------------------ wallclock

TEST(LintWallclock, FlagsChronoReads) {
  EXPECT_EQ(lines_of(lint_fixture("bad_wallclock.cpp"), "wallclock"),
            (std::vector<std::size_t>{6, 7}));
}

TEST(LintWallclock, CleanFilePasses) {
  EXPECT_TRUE(lint_fixture("good_wallclock.cpp").empty());
}

TEST(LintWallclock, ExemptsObsLayer) {
  const SourceFile f{"src/obs/timer.cpp",
                     "#include <chrono>\nauto t = "
                     "std::chrono::steady_clock::now();\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintWallclock, InstrumentedSatPlaneGetsNoBlanketExemption) {
  // The solver plane reports into src/obs but is not src/obs: raw chrono
  // there must still flag, both for a realistic fixture and for the actual
  // solver path.
  EXPECT_EQ(lines_of(lint_fixture("bad_sat_wallclock.cpp"), "wallclock"),
            (std::vector<std::size_t>{10, 12, 13}));
  const SourceFile f{"src/sat/solver.cpp",
                     "#include <chrono>\nauto t = "
                     "std::chrono::steady_clock::now();\n"};
  EXPECT_EQ(lines_of(run_lint({f}), "wallclock"),
            (std::vector<std::size_t>{2}));
}

TEST(LintWallclock, PerLineAnnotationSuppressesExactlyThatLine) {
  const SourceFile annotated{
      "src/sat/solver.cpp",
      "#include <chrono>  // lint:wallclock-ok diagnostics only\n"
      "auto t = std::chrono::steady_clock::now();  // lint:wallclock-ok\n"};
  EXPECT_TRUE(run_lint({annotated}).empty());

  const SourceFile partial{
      "src/sat/solver.cpp",
      "#include <chrono>  // lint:wallclock-ok\n"
      "auto a = std::chrono::steady_clock::now();\n"
      "auto b = std::chrono::steady_clock::now();  // lint:wallclock-ok\n"};
  // The annotation on lines 1 and 3 must not bleed onto line 2... except
  // that a tag also covers the immediately following line (the "annotation
  // above the statement" idiom), so line 2 rides on line 1 here.
  EXPECT_TRUE(run_lint({partial}).empty());
  const SourceFile bare{
      "src/sat/solver.cpp",
      "int x;\n"
      "auto a = std::chrono::steady_clock::now();\n"
      "auto b = std::chrono::steady_clock::now();  // lint:wallclock-ok\n"};
  EXPECT_EQ(lines_of(run_lint({bare}), "wallclock"),
            (std::vector<std::size_t>{2}));
}

// -------------------------------------------------------------- ordered

TEST(LintOrdered, FlagsRangeForOverUnorderedContainer) {
  EXPECT_EQ(lines_of(lint_fixture("bad_ordered.cpp"), "ordered"),
            (std::vector<std::size_t>{8}));
}

TEST(LintOrdered, LookupOnlyUsePasses) {
  EXPECT_TRUE(lint_fixture("good_ordered.cpp").empty());
}

TEST(LintOrdered, HeaderDeclaredNamesAreVisibleAcrossFiles) {
  // The member is declared unordered in the header; a .cpp iterating over it
  // must still be flagged even though the .cpp never names the type.
  const SourceFile hdr{"src/x/reg.hpp",
                       "#include <unordered_map>\n"
                       "struct Reg {\n"
                       "  std::unordered_map<int, int> table_;\n"
                       "};\n"};
  const SourceFile cpp{"src/x/reg.cpp",
                       "#include \"reg.hpp\"\n"
                       "int f(Reg& r) {\n"
                       "  int s = 0;\n"
                       "  for (auto& kv : r.table_) s += kv.second;\n"
                       "  return s;\n"
                       "}\n"};
  const auto vs = run_lint({hdr, cpp});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "ordered");
  EXPECT_EQ(vs[0].file, "src/x/reg.cpp");
  EXPECT_EQ(vs[0].line, 4u);
}

// ------------------------------------------------------------ chunk-rng

TEST(LintChunkRng, FlagsSharedRngAcrossChunks) {
  const auto lines = lines_of(lint_fixture("bad_chunk_rng.cpp"), "chunk-rng");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 11u);  // the parallel_for_chunks callsite
}

TEST(LintChunkRng, PerChunkStreamPasses) {
  EXPECT_TRUE(lint_fixture("good_chunk_rng.cpp").empty());
}

TEST(LintChunkRng, ParallelRegionWithoutRandomnessPasses) {
  const SourceFile f{"src/x/sum.cpp",
                     "double f(std::size_t n) {\n"
                     "  return pitfalls::support::parallel_reduce(\n"
                     "      n, 0.0, [](std::size_t i) { return double(i); },\n"
                     "      [](double a, double b) { return a + b; });\n"
                     "}\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// -------------------------------------------------------- require-guard

TEST(LintGuard, FlagsUnguardedPublicHeader) {
  const auto vs = lint_fixture_as("bad_guard.hpp", "src/x/bad_guard.hpp");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "require-guard");
  EXPECT_EQ(vs[0].line, 7u);  // the interpolate() declaration
}

TEST(LintGuard, GuardInHeaderPasses) {
  EXPECT_TRUE(
      lint_fixture_as("good_guard.hpp", "src/x/good_guard.hpp").empty());
}

TEST(LintGuard, GuardInSiblingCppPasses) {
  // Scanned together, the .cpp's PITFALLS_REQUIRE covers the header.
  SourceFile hpp = load_file(fixture("sibling_guard.hpp"));
  SourceFile cpp = load_file(fixture("sibling_guard.cpp"));
  hpp.path = "src/x/sibling_guard.hpp";
  cpp.path = "src/x/sibling_guard.cpp";
  EXPECT_TRUE(run_lint({hpp, cpp}).empty());
  // Scanned alone, the header is unguarded and must be flagged.
  EXPECT_EQ(lines_of(run_lint({hpp}), "require-guard"),
            (std::vector<std::size_t>{7}));
}

TEST(LintGuard, ToolAndTestHeadersAreOutOfScope) {
  // Contracts live in src/support/require.hpp; headers that cannot link the
  // support plane (the lint tool's own, test helpers) are exempt.
  EXPECT_TRUE(lint_fixture("bad_guard.hpp").empty());
  EXPECT_TRUE(
      lint_fixture_as("bad_guard.hpp", "tools/lint/bad_guard.hpp").empty());
}

// --------------------------------------------------------- scalar-query

TEST(LintScalarQuery, FlagsPerElementQueriesInParallelChunkBody) {
  const auto vs = lint_fixture_as("bad_scalar_query.cpp", "src/ml/agree.cpp");
  EXPECT_EQ(lines_of(vs, "scalar-query"), (std::vector<std::size_t>{20, 21}));
}

TEST(LintScalarQuery, AppliesUnderPufToo) {
  const auto vs =
      lint_fixture_as("bad_scalar_query.cpp", "src/puf/agree.cpp");
  EXPECT_EQ(lines_of(vs, "scalar-query").size(), 2u);
}

TEST(LintScalarQuery, BatchCallsPerChunkPass) {
  EXPECT_TRUE(
      lint_fixture_as("good_scalar_query.cpp", "src/ml/agree.cpp").empty());
}

TEST(LintScalarQuery, OutOfScopePathsAreExempt) {
  // The same scalar pattern outside src/ml and src/puf (benches, tests,
  // other layers) is allowed — only the query plane's own layers must batch.
  EXPECT_TRUE(lint_fixture("bad_scalar_query.cpp").empty());
  EXPECT_TRUE(
      lint_fixture_as("bad_scalar_query.cpp", "bench/bench_micro.cpp")
          .empty());
}

TEST(LintScalarQuery, ScalarQueryOutsideParallelRegionPasses) {
  const SourceFile f{"src/ml/serial.cpp",
                     "int probe(pitfalls::ml::MembershipOracle& o,\n"
                     "          const pitfalls::BitVec& x) {\n"
                     "  return o.query_pm(x);\n"
                     "}\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintScalarQuery, SuppressionTagSilencesTheRule) {
  const SourceFile f{
      "src/ml/agree.cpp",
      "void f(pitfalls::ml::MembershipOracle& o,\n"
      "       const std::vector<pitfalls::BitVec>& xs,\n"
      "       std::vector<int>& out) {\n"
      "  pitfalls::support::parallel_for_chunks(\n"
      "      xs.size(), [&](std::size_t c, std::size_t b, std::size_t e) {\n"
      "        (void)c;\n"
      "        for (std::size_t i = b; i < e; ++i)\n"
      "          out[i] = o.query_pm(xs[i]);  // lint:scalar-query-ok\n"
      "      });\n"
      "}\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// ---------------------------------------------------------------- arena

TEST(LintArena, FlagsClauseContainerMemberOutsideArenaModule) {
  const auto vs = lint_fixture("bad_arena.cpp");
  EXPECT_EQ(lines_of(vs, "arena"), (std::vector<std::size_t>{9, 11, 15}));
}

TEST(LintArena, ClauseRefListsPass) {
  EXPECT_TRUE(lint_fixture("good_arena.cpp").empty());
}

TEST(LintArena, ArenaModuleItselfIsExempt) {
  const SourceFile f{"src/sat/clause_arena.hpp",
                     "class ClauseArena {\n"
                     "  int clauses_ = 0;\n"
                     "};\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintArena, SuppressionTagSilencesTheRule) {
  const SourceFile f{"src/x/t.cpp",
                     "struct S {\n"
                     "  int clauses_ = 0;  // lint:arena-ok\n"
                     "};\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// --------------------------------------------------------------- raw-io

TEST(LintRawIo, FlagsStreamAndCstdioOpens) {
  const SourceFile f{"src/ml/dump.cpp",
                     "#include <fstream>\n"
                     "void dump(const std::string& path) {\n"
                     "  std::ofstream out(path);\n"
                     "  std::FILE* f = std::fopen(path.c_str(), \"rb\");\n"
                     "  std::ifstream in(path);\n"
                     "}\n"};
  EXPECT_EQ(lines_of(run_lint({f}), "raw-io"),
            (std::vector<std::size_t>{1, 3, 4, 5}));
}

TEST(LintRawIo, SnapshotAndObsModulesAreExempt) {
  const SourceFile snap{"src/support/snapshot/snapshot.cpp",
                        "#include <cstdio>\n"
                        "std::FILE* f = std::fopen(\"x\", \"rb\");\n"};
  const SourceFile obs{"src/obs/bench_reporter.cpp",
                       "#include <fstream>\n"
                       "std::ofstream out(\"x\");\n"};
  EXPECT_TRUE(run_lint({snap, obs}).empty());
}

TEST(LintRawIo, CatchesJournalingBypassInServeModule) {
  // The serve daemon journals finished jobs through store/snapshot; a
  // version that opens its own files must be caught when presented under
  // src/serve/ (the daemon's fd-based wire transport is not raw *file* I/O
  // and stays clean — see serve/wire.hpp).
  EXPECT_EQ(
      lines_of(lint_fixture_as("bad_serve_io.cpp", "src/serve/bad_io.cpp"),
               "raw-io"),
      (std::vector<std::size_t>{4, 11, 16}));
}

TEST(LintRawIo, SuppressionTagSilencesTheRule) {
  const SourceFile f{"src/x/t.cpp",
                     "#include <fstream>  // lint:raw-io-ok\n"
                     "std::ifstream in(\"x\");  // lint:raw-io-ok\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintRawIo, NonIoIdentifiersDoNotMatch) {
  // `reopen`/`fopened` must not fire; neither must prose in comments or
  // string literals (stripped before matching).
  const SourceFile f{"src/x/t.cpp",
                     "void reopen_session();\n"
                     "bool fopened = false;\n"
                     "// talk about fopen and ofstream here\n"
                     "const char* s = \"std::ofstream\";\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// ------------------------------------------------- chunk-rng (for_tasks)

TEST(LintChunkRng, CoversParallelForTasks) {
  const SourceFile f{
      "src/x/t.cpp",
      "void f(pitfalls::support::Rng& rng, std::vector<double>& out) {\n"
      "  pitfalls::support::parallel_for_tasks(\n"
      "      out.size(), [&](std::size_t task) {\n"
      "        out[task] = rng.uniform01();\n"
      "      });\n"
      "}\n"};
  EXPECT_EQ(lines_of(run_lint({f}), "chunk-rng"),
            (std::vector<std::size_t>{2}));
}

// ---------------------------------------------------------- suppression

TEST(LintSuppression, SameLineAndLineAboveTagsSilenceRules) {
  EXPECT_TRUE(lint_fixture("suppressed.cpp").empty());
}

TEST(LintSuppression, TagIsPerRule) {
  // An ordered-ok tag must NOT silence a wallclock finding on the same line
  // — and, since it then suppresses nothing, it is itself stale.
  const SourceFile f{"src/x/t.cpp",
                     "#include <chrono>\n"
                     "auto t = std::chrono::steady_clock::now();"
                     "  // lint:ordered-ok\n"};
  const auto vs = run_lint({f});
  EXPECT_EQ(lines_of(vs, "wallclock"), (std::vector<std::size_t>{2}));
  EXPECT_EQ(lines_of(vs, "stale-suppression"),
            (std::vector<std::size_t>{2}));
  EXPECT_EQ(vs.size(), 2u);
}

TEST(LintSuppression, TagTwoLinesAboveDoesNotApply) {
  // The tag reaches only its own line and the next one; two lines up it
  // neither suppresses the chrono read nor stays legitimate itself.
  const SourceFile f{"src/x/t.cpp",
                     "// lint:wallclock-ok\n"
                     "int unrelated;\n"
                     "#include <chrono>\n"
                     "auto t = std::chrono::steady_clock::now();\n"};
  const auto vs = run_lint({f});
  EXPECT_EQ(lines_of(vs, "wallclock"), (std::vector<std::size_t>{4}));
  EXPECT_EQ(lines_of(vs, "stale-suppression"),
            (std::vector<std::size_t>{1}));
}

// ----------------------------------------------------------- lexer/tokens

TEST(LintLexer, RawStringWithDelimiterAndQuotesInside) {
  // )"-lookalikes inside a delimited raw string must not terminate it.
  const std::string out = strip_comments_and_strings(
      "auto r = R\"x(quote \" close )\" rand() )x\";\nint keep;\n");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
}

TEST(LintLexer, EncodingPrefixedRawAndOrdinaryStrings) {
  for (const char* src :
       {"auto a = u8R\"(std::mt19937)\";\n", "auto b = LR\"(std::mt19937)\";\n",
        "auto c = u8\"std::mt19937\";\n", "auto d = L\"std::mt19937\";\n"}) {
    EXPECT_EQ(strip_comments_and_strings(src).find("mt19937"),
              std::string::npos)
        << src;
  }
}

TEST(LintLexer, TokensRecordRawStringContentAndLine) {
  const auto lexed = pitfalls::lint::lex("int a;\nauto s = R\"(p.q)\";\n");
  bool found = false;
  for (const auto& t : lexed.tokens) {
    if (t.kind == pitfalls::lint::Token::Kind::String) {
      EXPECT_EQ(t.text, "p.q");
      EXPECT_EQ(t.line, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintLexer, DigraphsNormaliseToPrimaryPunctuators) {
  const auto lexed =
      pitfalls::lint::lex("int a<:3:>;\nvoid f() <% %>\n%:define X\n");
  std::vector<std::string> puncts;
  for (const auto& t : lexed.tokens)
    if (t.kind == pitfalls::lint::Token::Kind::Punct)
      puncts.push_back(t.text);
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "["), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "]"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "{"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "}"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "#"), puncts.end());
  // Stripped text keeps the physical byte count per line.
  const std::string stripped = strip_comments_and_strings("a<:b:>");
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 0);
}

TEST(LintLexer, DigraphLessColonColonStaysTemplateSyntax) {
  // `<::` followed by a scope name is `<` + `::`, not the `[` digraph.
  const auto lexed = pitfalls::lint::lex("A<::B> x;\n");
  std::vector<std::string> puncts;
  for (const auto& t : lexed.tokens)
    if (t.kind == pitfalls::lint::Token::Kind::Punct)
      puncts.push_back(t.text);
  EXPECT_EQ(std::find(puncts.begin(), puncts.end(), "["), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "<"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
}

TEST(LintLexer, BackslashContinuationExtendsLineComment) {
  // The splice glues the second physical line into the comment, so the
  // chrono read there is commentary, not code — but line structure (and
  // with it every later line number) survives.
  const std::string src =
      "// hidden \\\nstd::chrono::steady_clock::now();\nint live;\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(out.find("chrono"), std::string::npos);
  EXPECT_NE(out.find("int live;"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  const SourceFile f{"src/x/t.cpp", src};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintLexer, SplicedStringAndIdentifierHoldTogether) {
  // A splice mid-identifier must not split it into two tokens; a splice
  // mid-string must stay inside the literal.
  const auto lexed = pitfalls::lint::lex("int ab\\\ncd = 0;\n");
  bool whole = false;
  for (const auto& t : lexed.tokens)
    if (t.kind == pitfalls::lint::Token::Kind::Identifier &&
        t.text == "abcd")
      whole = true;
  EXPECT_TRUE(whole);
  EXPECT_EQ(strip_comments_and_strings("auto s = \"ra\\\nnd()\";\n")
                .find("rand"),
            std::string::npos);
}

TEST(LintLexer, SuppressionTagsInsideStringLiteralsDoNotCount) {
  // A tag-shaped substring in a string literal is prose: it neither
  // suppresses the violation nor registers as a (stale) tag.
  const SourceFile f{"src/x/t.cpp",
                     "const char* doc = \"use lint:wallclock-ok here\";\n"
                     "auto t = std::chrono::steady_clock::now();\n"};
  const auto vs = run_lint({f});
  EXPECT_EQ(lines_of(vs, "wallclock"), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(lines_of(vs, "stale-suppression").empty());
}

TEST(LintLexer, TagInMultiLineBlockCommentAttachesToItsOwnLine) {
  const SourceFile f{"src/x/t.cpp",
                     "/* audit trail\n"
                     "   lint:wallclock-ok\n"
                     "*/\n"
                     "auto t = std::chrono::steady_clock::now();\n"};
  // The tag sits on physical line 2; it reaches lines 2-3 only, so the
  // read on line 4 still flags and the tag is stale.
  const auto vs = run_lint({f});
  EXPECT_EQ(lines_of(vs, "wallclock"), (std::vector<std::size_t>{4}));
  EXPECT_EQ(lines_of(vs, "stale-suppression"),
            (std::vector<std::size_t>{2}));
}

// --------------------------------------------------------- capture-race

TEST(LintCaptureRace, FlagsTsanCleanButOrderDependentFixture) {
  // The fixture guards every shared write with a mutex — ThreadSanitizer
  // passes it — yet the result depends on chunk execution order, which is
  // exactly what the rule rejects.
  const auto vs = lint_fixture("bad_capture_race.cpp");
  // sum += local; order.push_back(chunk); ++chunks_seen;
  EXPECT_EQ(lines_of(vs, "capture-race"),
            (std::vector<std::size_t>{24, 25, 26}));
}

TEST(LintCaptureRace, PerSlotWritesAndParallelReducePass) {
  EXPECT_TRUE(lint_fixture("good_capture_race.cpp").empty());
}

TEST(LintCaptureRace, ByValueCaptureIsNotARace) {
  const SourceFile f{"src/x/t.cpp",
                     "void f(std::vector<double>& out, double bias) {\n"
                     "  pitfalls::support::parallel_for(\n"
                     "      out.size(), [&out, bias](std::size_t i) {\n"
                     "        out[i] = bias;\n"
                     "      });\n"
                     "}\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintCaptureRace, ExplicitRefCaptureMutationFlags) {
  const SourceFile f{"src/x/t.cpp",
                     "void f(std::size_t n) {\n"
                     "  double sum = 0.0;\n"
                     "  pitfalls::support::parallel_for(\n"
                     "      n, [&sum](std::size_t i) {\n"
                     "        sum += static_cast<double>(i);\n"
                     "      });\n"
                     "}\n"};
  EXPECT_EQ(lines_of(run_lint({f}), "capture-race"),
            (std::vector<std::size_t>{5}));
}

TEST(LintCaptureRace, ParallelReduceCombineIsExempt) {
  // parallel_reduce IS the sanctioned chunk-order reduction — mutation in
  // its lambdas is not this rule's business.
  const SourceFile f{"src/x/t.cpp",
                     "double f(std::size_t n) {\n"
                     "  double extra = 0.0;\n"
                     "  return pitfalls::support::parallel_reduce(\n"
                     "      n, 0.0,\n"
                     "      [&](std::size_t i) { extra += 1.0; return extra; }"
                     ",\n"
                     "      [](double a, double b) { return a + b; });\n"
                     "}\n"};
  EXPECT_TRUE(lines_of(run_lint({f}), "capture-race").empty());
}

TEST(LintCaptureRace, MembersAndLocalDeclarationsAreSkipped) {
  const SourceFile f{
      "src/x/t.cpp",
      "void g(std::size_t n) {\n"
      "  pitfalls::support::parallel_for_tasks(n, [&](std::size_t task) {\n"
      "    double acc = 0.0;\n"
      "    acc += static_cast<double>(task);\n"  // declared in body: fine
      "    counter_ += acc;\n"  // trailing underscore: member convention
      "  });\n"
      "}\n"};
  EXPECT_TRUE(lines_of(run_lint({f}), "capture-race").empty());
}

TEST(LintCaptureRace, SuppressionTagSilencesTheRule) {
  const SourceFile f{
      "src/x/t.cpp",
      "void f(std::size_t n) {\n"
      "  std::atomic<int> calls{0};\n"
      "  pitfalls::support::parallel_for(n, [&](std::size_t) {\n"
      "    ++calls;  // lint:capture-race-ok (atomic counter)\n"
      "  });\n"
      "}\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// ------------------------------------------------------------- layering

TEST(LintLayering, UpwardEdgeIsRejected) {
  const SourceFile f{"src/support/pool.hpp",
                     "#include \"obs/metrics.hpp\"\n"};
  const auto vs = run_lint({f});
  ASSERT_EQ(lines_of(vs, "layering"), (std::vector<std::size_t>{1}));
}

TEST(LintLayering, UnsanctionedSameLayerEdgeIsRejected) {
  // puf and circuit share layer 3 but have no sanctioned edge.
  const SourceFile f{"src/puf/arbiter.hpp",
                     "#include \"circuit/netlist.hpp\"\n"};
  EXPECT_EQ(lines_of(run_lint({f}), "layering"),
            (std::vector<std::size_t>{1}));
}

TEST(LintLayering, DownwardAndSanctionedEdgesPass) {
  const SourceFile a{"src/attack/sat_attack.hpp",
                     "#include \"ml/oracle.hpp\"\n"
                     "#include \"lock/xor.hpp\"\n"
                     "#include \"sat/solver.hpp\"\n"
                     "#include \"support/rng.hpp\"\n"};
  const SourceFile b{"src/sat/cnf.hpp",
                     "#include \"circuit/netlist.hpp\"\n"};
  const SourceFile c{"src/store/serialize.hpp",
                     "#include \"attack/sat_attack.hpp\"\n"};
  EXPECT_TRUE(lines_of(run_lint({a, b, c}), "layering").empty());
}

TEST(LintLayering, IntraModuleAndSystemIncludesPass) {
  const SourceFile f{"src/sat/solver.cpp",
                     "#include \"sat/solver.hpp\"\n"
                     "#include <vector>\n"};
  EXPECT_TRUE(lines_of(run_lint({f}), "layering").empty());
}

TEST(LintLayering, UnknownModulesAreOutOfScope) {
  // Paths outside the named src/ modules (tests, tools, scratch dirs) and
  // includes of unknown first segments are not the DAG's business.
  const SourceFile a{"src/x/t.hpp", "#include \"obs/metrics.hpp\"\n"};
  const SourceFile b{"tools/lint/linter.cpp",
                     "#include \"support/rng.hpp\"\n"};
  EXPECT_TRUE(lines_of(run_lint({a, b}), "layering").empty());
}

TEST(LintLayering, SuppressionTagSilencesTheRule) {
  const SourceFile f{
      "src/support/pool.hpp",
      "#include \"obs/metrics.hpp\"  // lint:layering-ok (transition)\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

TEST(LintLayering, DagDescriptionNamesEveryModuleInLayerOrder) {
  const std::string dag = pitfalls::lint::dag_description();
  for (const char* m : {"support: layer 0", "obs: layer 1", "core: layer 2",
                        "boolfn: layer 2", "puf: layer 3", "circuit: layer 3",
                        "sat: layer 3", "ml: layer 4", "lock: layer 4",
                        "attack: layer 4", "store: layer 5"})
    EXPECT_NE(dag.find(m), std::string::npos) << m;
  EXPECT_NE(dag.find("attack -> ml"), std::string::npos);
}

// ------------------------------------------------------- metric-registry

const char* kRegistryText =
    "#pragma once\n"
    "inline constexpr const char* kRegistered[] = {\n"
    "    \"ml.fits\",\n"
    "    \"sat.conflicts\",\n"
    "};\n";

TEST(LintMetricRegistry, InertWithoutRegistryInFileSet) {
  const SourceFile f{"src/ml/fit.cpp",
                     "void f(Registry& r) { r.counter(\"ml.unknown\"); }\n"};
  EXPECT_TRUE(lines_of(run_lint({f}), "metric-registry").empty());
}

TEST(LintMetricRegistry, UnregisteredNameFlagsAtTheCallsite) {
  const SourceFile reg{"src/obs/names.hpp", kRegistryText};
  const SourceFile f{"src/ml/fit.cpp",
                     "void f(Registry& r) {\n"
                     "  r.counter(\"ml.fits\");\n"
                     "  r.histogram(\"ml.not_registered\");\n"
                     "}\n"};
  const auto vs = run_lint({reg, f});
  const auto lines = lines_of(vs, "metric-registry");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 3u);
}

TEST(LintMetricRegistry, SpanTimerAndBatchCallsitesAreScanned) {
  const SourceFile reg{"src/obs/names.hpp", kRegistryText};
  const SourceFile f{
      "src/sat/solve.cpp",
      "void f(Registry& r, Tracer& t) {\n"
      "  obs::TraceSpan span(\"sat.conflicts\");\n"
      "  obs::ScopedTimer timer(r, \"sat.unregistered_timer\");\n"
      "  obs::observe_batch(\"ml.fits\", 3);\n"
      "}\n"};
  const auto lines = lines_of(run_lint({reg, f}), "metric-registry");
  EXPECT_EQ(lines, (std::vector<std::size_t>{3}));
}

TEST(LintMetricRegistry, DuplicateRegistryEntryFlags) {
  const SourceFile reg{"src/obs/names.hpp",
                       "inline constexpr const char* kRegistered[] = {\n"
                       "    \"ml.fits\",\n"
                       "    \"ml.fits\",\n"
                       "};\n"};
  const SourceFile use{"src/ml/fit.cpp",
                       "void f(Registry& r) { r.counter(\"ml.fits\"); }\n"};
  EXPECT_EQ(lines_of(run_lint({reg, use}), "metric-registry"),
            (std::vector<std::size_t>{3}));
}

TEST(LintMetricRegistry, UnusedEntryFlagsOnlyWhenBenchPlaneIsScanned) {
  const SourceFile reg{"src/obs/names.hpp", kRegistryText};
  const SourceFile use{"src/ml/fit.cpp",
                       "void f(Registry& r) { r.counter(\"ml.fits\"); }\n"};
  // Without bench/ in the set, a registry entry may simply live in the
  // unscanned plane — stay silent.
  EXPECT_TRUE(lines_of(run_lint({reg, use}), "metric-registry").empty());
  // With a bench file present the whole namespace was scanned, so the
  // unused "sat.conflicts" entry must flag (at its registry line).
  const SourceFile bench{"bench/bench_x.cpp",
                         "void g(Registry& r) { r.counter(\"ml.fits\"); }\n"};
  const auto vs = run_lint({reg, use, bench});
  const auto lines = lines_of(vs, "metric-registry");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/obs/names.hpp");
  EXPECT_EQ(lines[0], 4u);
}

TEST(LintMetricRegistry, DynamicNamesAndOutOfScopeFilesAreSkipped) {
  const SourceFile reg{"src/obs/names.hpp", kRegistryText};
  const SourceFile dynamic{
      "src/ml/fit.cpp",
      "void f(Registry& r, const std::string& n) { r.counter(n); }\n"};
  const SourceFile test_file{
      "tests/obs_test.cpp",
      "void f(Registry& r) { r.counter(\"scratch.name\"); }\n"};
  EXPECT_TRUE(
      lines_of(run_lint({reg, dynamic, test_file}), "metric-registry")
          .empty());
}

TEST(LintMetricRegistry, SuppressionTagSilencesTheRule) {
  const SourceFile reg{"src/obs/names.hpp", kRegistryText};
  const SourceFile f{
      "src/ml/fit.cpp",
      "void f(Registry& r) {\n"
      "  r.counter(\"ml.migrating\");  // lint:metric-registry-ok\n"
      "}\n"};
  EXPECT_TRUE(run_lint({reg, f}).empty());
}

TEST(LintMetricRegistry, WriteNamesHeaderCollectsAndSortsUses) {
  const std::vector<SourceFile> files = {
      {"src/ml/fit.cpp",
       "void f(Registry& r) { r.counter(\"ml.fits\"); }\n"},
      {"bench/bench_x.cpp",
       "void g() { obs::TraceSpan s(\"bench.span\"); }\n"},
      {"tests/t.cpp", "void h(Registry& r) { r.counter(\"scratch\"); }\n"}};
  const std::string header = pitfalls::lint::write_names_header(files);
  EXPECT_NE(header.find("\"bench.span\",  // span"), std::string::npos);
  EXPECT_NE(header.find("\"ml.fits\",  // counter"), std::string::npos);
  EXPECT_EQ(header.find("scratch"), std::string::npos);  // tests out of scope
  EXPECT_LT(header.find("bench.span"), header.find("ml.fits"));  // sorted
  EXPECT_EQ(header, pitfalls::lint::write_names_header(files));
}

// ----------------------------------------------------- stale-suppression

TEST(LintStale, UnknownRuleTagFlags) {
  const SourceFile f{"src/x/t.cpp",
                     "int a;  // lint:no-such-rule-ok\n"};
  const auto vs = run_lint({f});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "stale-suppression");
  EXPECT_NE(vs[0].message.find("unknown rule"), std::string::npos);
}

TEST(LintStale, StaleTagCannotSuppressItself) {
  // There is deliberately no opt-out for this rule: tagging the stale tag
  // line only adds a second stale tag.
  const SourceFile f{"src/x/t.cpp",
                     "int a;  // lint:rng-ok lint:stale-suppression-ok\n"};
  const auto vs = run_lint({f});
  EXPECT_EQ(lines_of(vs, "stale-suppression").size(), 2u);
}

TEST(LintStale, TagConsumedByEitherCoveredLineIsNotStale) {
  // One tag, two covered lines, violation only on the second: still used.
  const SourceFile f{"src/x/t.cpp",
                     "// lint:wallclock-ok\n"
                     "auto t = std::chrono::steady_clock::now();\n"};
  EXPECT_TRUE(run_lint({f}).empty());
}

// ----------------------------------------------------------------- sarif

TEST(LintSarif, EmitsRulesAndResultsWithLocations) {
  const std::vector<Violation> vs = {
      {"src/ml/fit.cpp", 7, "rng", "raw \"RNG\" primitive"}};
  const std::string log = pitfalls::lint::to_sarif(vs);
  EXPECT_NE(log.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(log.find("\"name\": \"pitfalls-lint\""), std::string::npos);
  EXPECT_NE(log.find("\"ruleId\": \"rng\""), std::string::npos);
  EXPECT_NE(log.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(log.find("\"uri\": \"src/ml/fit.cpp\""), std::string::npos);
  // Quotes in messages are escaped, and every rule is described.
  EXPECT_NE(log.find("raw \\\"RNG\\\" primitive"), std::string::npos);
  for (const auto& rule : pitfalls::lint::rule_names())
    EXPECT_NE(log.find("\"id\": \"" + rule + "\""), std::string::npos);
}

TEST(LintSarif, EmptyRunIsStillValid) {
  const std::string log = pitfalls::lint::to_sarif({});
  EXPECT_NE(log.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(log.find("ruleId"), std::string::npos);
}

// ------------------------------------------------------------ machinery

TEST(LintApi, ViolationsAreSortedAndRulesEnumerated) {
  const auto vs = run_lint({load_file(fixture("bad_wallclock.cpp")),
                            load_file(fixture("bad_rng.cpp"))});
  ASSERT_GE(vs.size(), 2u);
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end(),
                             [](const Violation& a, const Violation& b) {
                               return std::tie(a.file, a.line, a.rule) <
                                      std::tie(b.file, b.line, b.rule);
                             }));
  const auto names = pitfalls::lint::rule_names();
  for (const char* r :
       {"rng", "wallclock", "ordered", "chunk-rng", "require-guard",
        "scalar-query", "arena", "raw-io", "capture-race", "layering",
        "metric-registry", "stale-suppression"})
    EXPECT_NE(std::find(names.begin(), names.end(), r), names.end())
        << "missing rule " << r;
  for (const auto& rule : names)
    EXPECT_FALSE(pitfalls::lint::rule_summary(rule).empty()) << rule;
}

TEST(LintApi, CollectSourcesFindsAllFixtures) {
  const auto paths =
      pitfalls::lint::collect_sources({std::string(LINT_FIXTURES_DIR)});
  EXPECT_GE(paths.size(), 15u);
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

TEST(LintApi, CollectSourcesPrunesFixtureTreesUnlessExplicit) {
  // Walking the parent (tests/) must skip the deliberate-violation tree;
  // only naming it as a root reaches inside (previous test).
  const std::string tests_dir = std::filesystem::path(LINT_FIXTURES_DIR)
                                    .parent_path()
                                    .string();
  const auto paths = pitfalls::lint::collect_sources({tests_dir});
  EXPECT_FALSE(paths.empty());
  for (const auto& p : paths)
    EXPECT_EQ(p.find("lint_fixtures"), std::string::npos) << p;
}

}  // namespace
