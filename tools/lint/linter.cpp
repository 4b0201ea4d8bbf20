#include "linter.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>  // lint:raw-io-ok (the linter reads sources directly)
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"
#include "symbol_index.hpp"

namespace pitfalls::lint {

namespace {

// ---------------------------------------------------------------------------
// Text plumbing
// ---------------------------------------------------------------------------

std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

// One file prepared for rule matching: the lexer's token stream and blanked
// text for the textual rules, the symbol index for the semantic rules, and
// the suppression tags harvested from comment tokens only (a tag-shaped
// substring inside a string literal is prose, not a suppression).
struct FileView {
  std::string path;  // normalized
  std::vector<std::string> lines;
  std::string stripped;  // whole stripped text, for cross-line scans
  LexedFile lexed;
  FileIndex index;
  bool is_header = false;
  // 0-based line index -> rules tagged on that line.
  std::map<std::size_t, std::set<std::string>> tags;
  // Tags that suppressed at least one violation; the rest are stale.
  // Mutable because suppressed() is the natural recording point and every
  // rule calls it through const context.
  mutable std::set<std::pair<std::size_t, std::string>> used_tags;

  bool suppressed(std::size_t line_index, const std::string& rule) const {
    bool hit = false;
    const auto mark = [&](std::size_t li) {
      const auto it = tags.find(li);
      if (it != tags.end() && it->second.count(rule) != 0) {
        used_tags.insert({li, rule});
        hit = true;
      }
    };
    mark(line_index);
    if (line_index > 0) mark(line_index - 1);
    return hit;
  }
};

std::map<std::size_t, std::set<std::string>> harvest_tags(
    const LexedFile& lexed) {
  static const std::regex kTag("lint:([a-z][a-z-]*)-ok");
  std::map<std::size_t, std::set<std::string>> tags;
  for (const auto& token : lexed.tokens) {
    if (token.kind != Token::Kind::Comment) continue;
    auto begin =
        std::sregex_iterator(token.text.begin(), token.text.end(), kTag);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::size_t newlines_before = static_cast<std::size_t>(
          std::count(token.text.begin(),
                     token.text.begin() + it->position(), '\n'));
      tags[token.line - 1 + newlines_before].insert((*it)[1].str());
    }
  }
  return tags;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Context shared by the rules
// ---------------------------------------------------------------------------

struct LintContext {
  std::vector<FileView> files;
  // Names declared as unordered containers: header declarations are visible
  // everywhere (members iterated from sibling .cpp files), .cpp declarations
  // stay file-local so a short name in one TU cannot taint another.
  std::set<std::string> global_unordered;
  std::map<std::string, std::set<std::string>> local_unordered;
  // Normalized paths of files that contain a PITFALLS_REQUIRE/ENSURE.
  std::set<std::string> guarded_files;
};

void emit(const FileView& view, std::size_t line_index, const std::string& rule,
          const std::string& message, std::vector<Violation>& out) {
  if (view.suppressed(line_index, rule)) return;
  out.push_back(Violation{view.path, line_index + 1, rule, message});
}

// ---------------------------------------------------------------------------
// Rule: rng — raw RNG primitives outside src/support/rng
// ---------------------------------------------------------------------------

void check_raw_rng(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/support/rng")) return;
  static const std::regex kRawRng(
      "\\b(mt19937(_64)?|random_device|minstd_rand0?|default_random_engine)\\b"
      "|\\bs?rand\\s*\\(");
  for (std::size_t i = 0; i < view.lines.size(); ++i) {
    if (std::regex_search(view.lines[i], kRawRng))
      emit(view, i, "rng",
           "raw RNG primitive; every stochastic draw must flow through "
           "support::Rng (src/support/rng) so experiments replay "
           "bit-for-bit",
           out);
  }
}

// ---------------------------------------------------------------------------
// Rule: wallclock — time-derived values outside src/obs
// ---------------------------------------------------------------------------

void check_wallclock(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/obs/")) return;
  static const std::regex kWallclock(
      "\\bstd\\s*::\\s*chrono\\b|\\bsteady_clock\\b|\\bsystem_clock\\b"
      "|\\bhigh_resolution_clock\\b|\\bclock_gettime\\b|\\bgettimeofday\\b"
      "|\\btimespec_get\\b|\\bstd\\s*::\\s*time\\b|\\bstd\\s*::\\s*clock\\b");
  for (std::size_t i = 0; i < view.lines.size(); ++i) {
    if (std::regex_search(view.lines[i], kWallclock))
      emit(view, i, "wallclock",
           "wall-clock read outside src/obs; time must never influence a "
           "result (annotate diagnostics-only timing with "
           "// lint:wallclock-ok)",
           out);
  }
}

// ---------------------------------------------------------------------------
// Rule: ordered — iteration over unordered containers
// ---------------------------------------------------------------------------

// Find the index just past the '>' matching the '<' at `open`. Returns
// std::string::npos when the angle brackets are unbalanced or interrupted.
std::size_t match_angle(const std::string& text, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth == 0) return std::string::npos;
      if (--depth == 0) return i + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

// Variable (or member) names declared with an unordered container type in
// this file, including single-line `using X = std::unordered_map<...>`
// aliases and variables later declared with such an alias.
std::set<std::string> collect_unordered_names(const std::string& stripped) {
  std::set<std::string> names;
  std::set<std::string> alias_types;

  static const std::regex kDecl("\\bunordered_(?:multi)?(?:map|set)\\s*<");
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + it->length() - 1;
    // `using Alias = std::unordered_map<...>` registers the alias type.
    {
      const std::size_t line_start =
          stripped.rfind('\n', static_cast<std::size_t>(it->position()));
      const std::size_t from = line_start == std::string::npos ? 0
                                                               : line_start + 1;
      const std::string before(stripped, from,
                               static_cast<std::size_t>(it->position()) - from);
      static const std::regex kUsing("\\busing\\s+([A-Za-z_]\\w*)\\s*=");
      std::smatch m;
      if (std::regex_search(before, m, kUsing)) {
        alias_types.insert(m[1].str());
        continue;
      }
    }
    std::size_t pos = match_angle(stripped, open);
    if (pos == std::string::npos) continue;
    while (pos < stripped.size() &&
           (std::isspace(static_cast<unsigned char>(stripped[pos])) != 0 ||
            stripped[pos] == '&' || stripped[pos] == '*'))
      ++pos;
    std::size_t end = pos;
    while (end < stripped.size() && is_ident_char(stripped[end])) ++end;
    if (end == pos) continue;
    // Skip function declarations returning the container.
    std::size_t after = end;
    while (after < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[after])) != 0)
      ++after;
    if (after < stripped.size() && stripped[after] == '(') continue;
    names.insert(stripped.substr(pos, end - pos));
  }

  for (const auto& alias : alias_types) {
    const std::regex var_decl("\\b" + alias + "\\s*[&*]?\\s+([A-Za-z_]\\w*)");
    auto vb = std::sregex_iterator(stripped.begin(), stripped.end(), var_decl);
    for (auto it = vb; it != std::sregex_iterator(); ++it)
      names.insert((*it)[1].str());
  }
  return names;
}

void check_ordered(const LintContext& ctx, const FileView& view,
                   std::vector<Violation>& out) {
  std::set<std::string> names = ctx.global_unordered;
  const auto local = ctx.local_unordered.find(view.path);
  if (local != ctx.local_unordered.end())
    names.insert(local->second.begin(), local->second.end());
  if (names.empty()) return;

  for (const auto& name : names) {
    const std::regex range_for(
        "for\\s*\\([^;{}()]*:\\s*[*&]?\\s*(?:[A-Za-z_]\\w*\\s*(?:\\.|->)"
        "\\s*)*" +
        name + "\\s*\\)");
    const std::regex begin_call("\\b" + name +
                                "\\s*\\.\\s*c?r?begin\\s*\\(");
    for (std::size_t i = 0; i < view.lines.size(); ++i) {
      if (std::regex_search(view.lines[i], range_for) ||
          std::regex_search(view.lines[i], begin_call))
        emit(view, i, "ordered",
             "iteration over unordered container '" + name +
                 "' — hash order is not deterministic across platforms; "
                 "use an ordered container, sort first, or annotate an "
                 "order-insensitive use with // lint:ordered-ok",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: chunk-rng — parallel regions must use per-chunk RNG streams
// ---------------------------------------------------------------------------

// Index just past the ')' matching the '(' at `open`, or npos.
std::size_t match_paren(const std::string& text, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

void check_chunk_rng(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/support/parallel")) return;
  static const std::regex kCall(
      "\\bparallel_(?:for_chunks|for_tasks|reduce|for)\\b");
  auto begin = std::sregex_iterator(view.stripped.begin(),
                                    view.stripped.end(), kCall);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length());
    while (pos < view.stripped.size() &&
           std::isspace(static_cast<unsigned char>(view.stripped[pos])) != 0)
      ++pos;
    if (pos < view.stripped.size() && view.stripped[pos] == '<') {
      pos = match_angle(view.stripped, pos);
      if (pos == std::string::npos) continue;
      while (pos < view.stripped.size() &&
             std::isspace(static_cast<unsigned char>(view.stripped[pos])) != 0)
        ++pos;
    }
    if (pos >= view.stripped.size() || view.stripped[pos] != '(') continue;
    const std::size_t close = match_paren(view.stripped, pos);
    if (close == std::string::npos) continue;
    const std::string span = view.stripped.substr(pos, close - pos);

    bool uses_rng = false;
    bool derives_per_chunk = false;
    static const std::regex kIdent("[A-Za-z_]\\w*");
    auto tb = std::sregex_iterator(span.begin(), span.end(), kIdent);
    for (auto tok = tb; tok != std::sregex_iterator(); ++tok) {
      std::string word = tok->str();
      if (word == "rng_for_chunk") {
        derives_per_chunk = true;
        continue;
      }
      std::transform(word.begin(), word.end(), word.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      });
      if (word.find("rng") != std::string::npos) uses_rng = true;
    }
    if (uses_rng && !derives_per_chunk) {
      const std::size_t line_index = static_cast<std::size_t>(
          std::count(view.stripped.begin(),
                     view.stripped.begin() + static_cast<std::ptrdiff_t>(
                                                 it->position()),
                     '\n'));
      emit(view, line_index, "chunk-rng",
           "parallel region consumes an Rng without deriving a per-chunk "
           "stream via support::rng_for_chunk(seed, chunk); sharing one "
           "Rng& across chunks makes results depend on PITFALLS_THREADS",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: scalar-query — per-element oracle/PUF queries inside parallel chunk
// bodies must use the batch query plane
// ---------------------------------------------------------------------------

void check_scalar_query(const FileView& view, std::vector<Violation>& out) {
  // Scoped to the layers that own the batch plane: learners/oracles and the
  // PUF simulators. Other layers may legitimately evaluate one-at-a-time.
  if (!path_contains(view.path, "src/ml") &&
      !path_contains(view.path, "src/puf"))
    return;
  static const std::regex kCall(
      "\\bparallel_(?:for_chunks|for_tasks|reduce|for)\\b");
  // query_pm/eval_pm followed by '(' — the batch entry points end in
  // "_batch(", so they never match.
  static const std::regex kScalarCall("\\b(?:query_pm|eval_pm)\\s*\\(");
  auto begin = std::sregex_iterator(view.stripped.begin(),
                                    view.stripped.end(), kCall);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length());
    while (pos < view.stripped.size() &&
           std::isspace(static_cast<unsigned char>(view.stripped[pos])) != 0)
      ++pos;
    if (pos < view.stripped.size() && view.stripped[pos] == '<') {
      pos = match_angle(view.stripped, pos);
      if (pos == std::string::npos) continue;
      while (pos < view.stripped.size() &&
             std::isspace(static_cast<unsigned char>(view.stripped[pos])) != 0)
        ++pos;
    }
    if (pos >= view.stripped.size() || view.stripped[pos] != '(') continue;
    const std::size_t close = match_paren(view.stripped, pos);
    if (close == std::string::npos) continue;
    const std::string span = view.stripped.substr(pos, close - pos);

    auto sb = std::sregex_iterator(span.begin(), span.end(), kScalarCall);
    for (auto call = sb; call != std::sregex_iterator(); ++call) {
      const std::size_t offset =
          pos + static_cast<std::size_t>(call->position());
      const std::size_t line_index = static_cast<std::size_t>(std::count(
          view.stripped.begin(),
          view.stripped.begin() + static_cast<std::ptrdiff_t>(offset), '\n'));
      emit(view, line_index, "scalar-query",
           "per-element query_pm/eval_pm inside a parallel chunk body pays "
           "per-challenge dispatch and skips the bit-sliced PUF kernels; "
           "issue one query_pm_batch/eval_pm_batch per chunk instead (or "
           "annotate an audited exception with // lint:scalar-query-ok)",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: arena — clause storage belongs to sat::ClauseArena
// ---------------------------------------------------------------------------

void check_arena(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/sat/clause_arena")) return;
  // The pre-arena solver kept a vector<vector<Lit>> member named clauses_;
  // any reappearance of that member outside the arena module reintroduces
  // the pointer chase the flat arena was built to remove.
  static const std::regex kClauseStore("\\bclauses_\\b");
  for (std::size_t i = 0; i < view.lines.size(); ++i) {
    if (std::regex_search(view.lines[i], kClauseStore))
      emit(view, i, "arena",
           "per-clause container member 'clauses_' outside the clause-arena "
           "module; clause literals live in sat::ClauseArena behind 32-bit "
           "ClauseRefs (annotate an audited exception with "
           "// lint:arena-ok)",
           out);
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-io — file I/O belongs to src/support/snapshot and src/obs
// ---------------------------------------------------------------------------

void check_raw_io(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/support/snapshot") ||
      path_contains(view.path, "src/obs/"))
    return;
  // fopen/freopen/tmpfile and the <fstream> class family (the \b before the
  // optional i/o also catches `#include <fstream>` so the dependency is
  // flagged at its root, not just at the use site).
  static const std::regex kRawIo(
      "\\bf(?:re)?open\\s*\\(|\\btmpfile\\s*\\(|\\b[io]?fstream\\b"
      "|\\bfilebuf\\b");
  for (std::size_t i = 0; i < view.lines.size(); ++i) {
    if (std::regex_search(view.lines[i], kRawIo))
      emit(view, i, "raw-io",
           "raw file I/O outside src/support/snapshot and src/obs; "
           "experiment state must flow through the crash-safe snapshot "
           "format (support::snapshot — a log of CRC'd frames) so a crash "
           "can never leave a torn artefact (annotate an audited "
           "exception with // lint:raw-io-ok)",
           out);
  }
}

// ---------------------------------------------------------------------------
// Rule: require-guard — parameterised public headers carry contracts
// ---------------------------------------------------------------------------

bool has_parameterised_api(const FileView& view, std::size_t& decl_line) {
  // A declaration whose parameter list names a fundamental/value type. The
  // scan runs over the whole stripped text so multi-line declarations count;
  // [^()]* cannot cross a parenthesis, so a match can never span statements.
  static const std::regex kDecl(
      "([A-Za-z_]\\w*)\\s*\\(\\s*[^()]*\\b(?:double|float|bool|int|long|"
      "unsigned|short|size_t|u?int(?:8|16|32|64)_t|std\\s*::\\s*(?:size_t|"
      "u?int(?:8|16|32|64)_t|string|vector|function|span|optional))\\b"
      "[^()]*\\)");
  static const std::set<std::string> kNotFunctions = {
      "if",     "while",  "for",           "switch",  "return",
      "sizeof", "catch",  "alignof",       "decltype", "static_assert",
      "assert", "define", "static_cast",   "alignas"};
  auto begin = std::sregex_iterator(view.stripped.begin(),
                                    view.stripped.end(), kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    if (kNotFunctions.count((*it)[1].str()) != 0) continue;
    decl_line = static_cast<std::size_t>(
        std::count(view.stripped.begin(),
                   view.stripped.begin() +
                       static_cast<std::ptrdiff_t>(it->position()),
                   '\n'));
    return true;
  }
  return false;
}

void check_require_guard(const LintContext& ctx, const FileView& view,
                         std::vector<Violation>& out) {
  if (!view.is_header) return;
  // Contracts live in src/support/require.hpp; only the library headers
  // under src/ are expected to carry them (tools and tests do not link the
  // support plane).
  if (!path_contains(view.path, "src/")) return;
  if (path_contains(view.path, "detail")) return;
  if (ctx.guarded_files.count(view.path) != 0) return;
  // A sibling .cpp (same stem) holding the contracts satisfies the rule.
  for (const char* ext : {".cpp", ".cc"}) {
    const std::size_t dot = view.path.rfind('.');
    if (dot != std::string::npos &&
        ctx.guarded_files.count(view.path.substr(0, dot) + ext) != 0)
      return;
  }
  std::size_t decl_line = 0;
  if (!has_parameterised_api(view, decl_line)) return;
  emit(view, decl_line, "require-guard",
       "public header declares a parameterised API but neither it nor its "
       "sibling .cpp contains a PITFALLS_REQUIRE/PITFALLS_ENSURE contract; "
       "guard the entry points (src/support/require.hpp)",
       out);
}

// ---------------------------------------------------------------------------
// Rule: capture-race — parallel lambdas must not mutate by-ref captures
// ---------------------------------------------------------------------------

// Token-level analysis of the lambdas handed to parallel_for /
// parallel_for_chunks / parallel_for_tasks. A non-const outer local
// captured by reference and mutated from the lambda body makes the result
// depend on chunk execution order — which is scheduled deterministically
// per PITFALLS_THREADS value but differs BETWEEN values, so the bug is
// invisible to TSan (a mutex makes it data-race-free without making it
// order-free). The sanctioned patterns are: write only through a subscript
// on the captured object (x[...] — the distinct-slot convention, each
// iteration owns its slot), or move the accumulation into parallel_reduce,
// whose combine step runs in chunk order by construction.

using CodeTokens = std::vector<const Token*>;

bool tok_is(const CodeTokens& code, std::size_t i, const char* text) {
  return i < code.size() && code[i]->kind == Token::Kind::Punct &&
         code[i]->text == text;
}

bool tok_ident(const CodeTokens& code, std::size_t i) {
  return i < code.size() && code[i]->kind == Token::Kind::Identifier;
}

// Index of the punctuator closing the bracket pair opened at `open`
// (matching open/close by token), or code.size() when unbalanced.
std::size_t match_tok(const CodeTokens& code, std::size_t open,
                      const char* open_text, const char* close_text) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (tok_is(code, i, open_text)) {
      ++depth;
    } else if (tok_is(code, i, close_text)) {
      if (--depth == 0) return i;
    }
  }
  return code.size();
}

const std::set<std::string>& mutating_methods() {
  static const std::set<std::string> kMethods = {
      "push_back", "emplace_back", "emplace", "insert",    "erase",
      "clear",     "resize",       "append",  "push",      "pop",
      "pop_back",  "pop_front",    "assign",  "push_front"};
  return kMethods;
}

const std::set<std::string>& assignment_ops() {
  static const std::set<std::string> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return kOps;
}

struct LambdaInfo {
  bool default_by_ref = false;
  std::set<std::string> ref_captures;   // explicit &name captures
  std::set<std::string> local_names;    // by-val captures, params, body decls
  std::size_t body_begin = 0;           // token index just past '{'
  std::size_t body_end = 0;             // token index of matching '}'
  bool valid = false;
};

// Parse the lambda whose capture-intro '[' sits at `intro`.
LambdaInfo parse_lambda(const CodeTokens& code, std::size_t intro) {
  LambdaInfo info;
  const std::size_t close = match_tok(code, intro, "[", "]");
  if (close >= code.size()) return info;

  // Capture list: entries at paren depth 0, split on ','.
  std::size_t entry_start = intro + 1;
  std::size_t paren_depth = 0;
  const auto handle_entry = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    if (tok_is(code, from, "&")) {
      if (from + 1 < to && tok_ident(code, from + 1))
        info.ref_captures.insert(code[from + 1]->text);
      else
        info.default_by_ref = true;
    } else if (tok_ident(code, from) && code[from]->text != "this") {
      info.local_names.insert(code[from]->text);  // by-val copy
    }
  };
  for (std::size_t i = intro + 1; i < close; ++i) {
    if (tok_is(code, i, "(")) ++paren_depth;
    if (tok_is(code, i, ")")) --paren_depth;
    if (tok_is(code, i, ",") && paren_depth == 0) {
      handle_entry(entry_start, i);
      entry_start = i + 1;
    }
  }
  handle_entry(entry_start, close);

  // Parameter list: the identifier directly before each top-level ',' or
  // the closing ')' is the parameter name.
  std::size_t pos = close + 1;
  if (tok_is(code, pos, "(")) {
    const std::size_t params_close = match_tok(code, pos, "(", ")");
    if (params_close >= code.size()) return info;
    std::size_t depth = 0;
    for (std::size_t i = pos; i <= params_close; ++i) {
      if (tok_is(code, i, "(")) ++depth;
      const bool boundary = (tok_is(code, i, ",") && depth == 1) ||
                            (i == params_close);
      if (boundary && i > 0 && tok_ident(code, i - 1))
        info.local_names.insert(code[i - 1]->text);
      if (tok_is(code, i, ")")) --depth;
    }
    pos = params_close + 1;
  }

  // Skip specifiers / trailing return type up to the body.
  while (pos < code.size() && !tok_is(code, pos, "{")) ++pos;
  if (pos >= code.size()) return info;
  const std::size_t body_close = match_tok(code, pos, "{", "}");
  if (body_close >= code.size()) return info;
  info.body_begin = pos + 1;
  info.body_end = body_close;

  // Identifiers declared inside the body: a token preceded by a type-ish
  // token (identifier, '>', '&', '*', '&&') and followed by a declarator
  // continuation ('=', '{', ';', ':', ','). Heuristic, biased toward
  // treating names as local (a miss suppresses a finding, never invents
  // one on a declared local).
  for (std::size_t i = info.body_begin; i < info.body_end; ++i) {
    if (!tok_ident(code, i) || i == 0) continue;
    const Token* prev = code[i - 1];
    const bool typeish =
        prev->kind == Token::Kind::Identifier ||
        (prev->kind == Token::Kind::Punct &&
         (prev->text == ">" || prev->text == "&" || prev->text == "*" ||
          prev->text == "&&"));
    if (!typeish) continue;
    if (tok_is(code, i + 1, "=") || tok_is(code, i + 1, "{") ||
        tok_is(code, i + 1, ";") || tok_is(code, i + 1, ":") ||
        tok_is(code, i + 1, ",") || tok_is(code, i + 1, "("))
      info.local_names.insert(code[i]->text);
  }

  info.valid = true;
  return info;
}

void check_capture_race(const FileView& view, std::vector<Violation>& out) {
  if (path_contains(view.path, "src/support/parallel")) return;
  CodeTokens code;
  code.reserve(view.lexed.tokens.size());
  for (const auto& t : view.lexed.tokens)
    if (t.kind != Token::Kind::Comment) code.push_back(&t);

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!tok_ident(code, i)) continue;
    const std::string& name = code[i]->text;
    // parallel_reduce is the sanctioned chunk-order reduction; mutation in
    // its combine step is the point, so only the fan-out entry points are
    // analysed.
    if (name != "parallel_for" && name != "parallel_for_chunks" &&
        name != "parallel_for_tasks")
      continue;
    std::size_t open = i + 1;
    if (tok_is(code, open, "<"))  // explicit template arguments
      open = match_tok(code, open, "<", ">") + 1;
    if (!tok_is(code, open, "(")) continue;
    const std::size_t call_close = match_tok(code, open, "(", ")");
    if (call_close >= code.size()) continue;

    // Lambdas appearing as direct arguments: '[' preceded by '(' or ','.
    for (std::size_t j = open + 1; j < call_close; ++j) {
      if (!tok_is(code, j, "[")) continue;
      if (!(tok_is(code, j - 1, "(") || tok_is(code, j - 1, ","))) continue;
      const LambdaInfo lambda = parse_lambda(code, j);
      if (!lambda.valid) continue;

      for (std::size_t k = lambda.body_begin; k < lambda.body_end; ++k) {
        if (!tok_ident(code, k)) continue;
        const std::string& id = code[k]->text;
        if (!id.empty() && id.back() == '_') continue;  // member convention
        if (lambda.local_names.count(id) != 0) continue;
        const bool by_ref = lambda.ref_captures.count(id) != 0 ||
                            (lambda.default_by_ref &&
                             lambda.local_names.count(id) == 0);
        if (!by_ref) continue;
        // Writes through a subscript are the distinct-slot convention:
        // each iteration owns its element, no cross-chunk order leaks.
        if (tok_is(code, k + 1, "[")) continue;
        // Skip qualified/member uses: a.x / a->x / ns::x reads x off
        // something else; the capture analysis only covers the bare name.
        if (k > 0 && (tok_is(code, k - 1, ".") || tok_is(code, k - 1, "->") ||
                      tok_is(code, k - 1, "::")))
          continue;

        bool mutated = false;
        if (k + 1 < code.size() &&
            code[k + 1]->kind == Token::Kind::Punct &&
            assignment_ops().count(code[k + 1]->text) != 0)
          mutated = true;
        if (tok_is(code, k + 1, "++") || tok_is(code, k + 1, "--")) {
          mutated = true;
        }
        if (k > 0 && (tok_is(code, k - 1, "++") || tok_is(code, k - 1, "--")))
          mutated = true;
        if ((tok_is(code, k + 1, ".") || tok_is(code, k + 1, "->")) &&
            tok_ident(code, k + 2) &&
            mutating_methods().count(code[k + 2]->text) != 0 &&
            tok_is(code, k + 3, "("))
          mutated = true;

        if (mutated) {
          emit(view, code[k]->line - 1, "capture-race",
               "'" + id + "' is captured by reference and mutated inside a " +
                   name +
                   " lambda; chunk execution order leaks into the result "
                   "even when TSan is clean (a mutex removes the data race, "
                   "not the order dependence). Write through a per-index "
                   "slot, or accumulate via support::parallel_reduce, whose "
                   "combine step runs in chunk order (audited exceptions: "
                   "// lint:capture-race-ok)",
               out);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: layering — #include edges must respect the module DAG
// ---------------------------------------------------------------------------

void check_layering(const LintContext& ctx, std::vector<Violation>& out) {
  // Observed module edges, for the cycle check: module -> (module, source).
  std::map<std::string, std::set<std::string>> edges;

  for (const auto& view : ctx.files) {
    const std::string from = module_of_path(view.path);
    if (from.empty()) continue;
    for (const auto& inc : view.index.includes) {
      const std::string to = module_of_include(inc.target);
      if (to.empty()) continue;
      if (from != to) edges[from].insert(to);
      if (!dag_edge_allowed(from, to)) {
        emit(view, inc.line - 1, "layering",
             "module '" + from + "' (layer " +
                 std::to_string(module_layer(from)) +
                 ") must not include '" + inc.target + "' (module '" + to +
                 "', layer " + std::to_string(module_layer(to)) +
                 "): the DAG runs support -> obs -> core/boolfn -> "
                 "puf/circuit/sat -> ml/lock/attack -> store; invert the "
                 "dependency or move the shared piece down a layer",
             out);
      }
    }
  }

  // Cycle check over the observed edges — defence in depth: the layer table
  // makes cycles impossible unless the sanctioned same-layer list ever
  // gains an inverse pair, and this catches that on the spot.
  std::map<std::string, int> state;  // 0 unvisited / 1 on stack / 2 done
  std::vector<std::string> cycle;
  const std::function<bool(const std::string&)> visit =
      [&](const std::string& m) -> bool {
    state[m] = 1;
    const auto it = edges.find(m);
    if (it != edges.end()) {
      for (const auto& next : it->second) {
        if (state[next] == 1) {
          cycle.push_back(next);
          cycle.push_back(m);
          return true;
        }
        if (state[next] == 0 && visit(next)) {
          cycle.push_back(m);
          return true;
        }
      }
    }
    state[m] = 2;
    return false;
  };
  for (const auto& [m, targets] : edges) {
    if (state[m] == 0 && visit(m)) {
      std::string path_text;
      for (auto it = cycle.rbegin(); it != cycle.rend(); ++it)
        path_text += (path_text.empty() ? "" : " -> ") + *it;
      out.push_back(Violation{
          "src", 1, "layering",
          "include cycle between modules: " + path_text +
              "; the module graph must stay a DAG"});
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: metric-registry — obs names are declared exactly once in
// src/obs/names.hpp
// ---------------------------------------------------------------------------

bool is_registry_file(const std::string& path) {
  return path == "src/obs/names.hpp" ||
         (path.size() > 18 &&
          path.compare(path.size() - 18, 18, "/src/obs/names.hpp") == 0);
}

bool in_metric_scope(const std::string& path) {
  // src/ and bench/ own the registered namespace; tests and tools use
  // scratch names on purpose.
  return (path_contains(path, "src/") || path_contains(path, "bench/")) &&
         !path_contains(path, "tests/") && !path_contains(path, "tools/");
}

void check_metric_registry(const LintContext& ctx,
                           std::vector<Violation>& out) {
  const FileView* registry = nullptr;
  for (const auto& view : ctx.files)
    if (is_registry_file(view.path)) registry = &view;
  if (registry == nullptr) return;  // no registry in this file set: inert

  // Registry entries: every string literal in names.hpp, each exactly once.
  std::map<std::string, std::size_t> entries;  // name -> first line
  for (const auto& lit : registry->index.string_literals) {
    const auto [it, inserted] = entries.emplace(lit.text, lit.line);
    if (!inserted) {
      emit(*registry, lit.line - 1, "metric-registry",
           "metric name '" + lit.text +
               "' is declared more than once in the registry (first at line " +
               std::to_string(it->second) + ")",
           out);
    }
  }

  std::set<std::string> used;
  bool scanned_bench = false;
  for (const auto& view : ctx.files) {
    if (&view == registry || !in_metric_scope(view.path)) continue;
    if (path_contains(view.path, "bench/")) scanned_bench = true;
    for (const auto& use : view.index.metric_uses) {
      used.insert(use.name);
      if (entries.count(use.name) == 0) {
        emit(view, use.line - 1, "metric-registry",
             "obs name '" + use.name + "' (" + use.api +
                 ") is not declared in src/obs/names.hpp; regenerate the "
                 "registry with pitfalls-lint --write-names "
                 "src/obs/names.hpp src bench",
             out);
      }
    }
  }

  // Unused entries only make sense when the bench plane was scanned too —
  // a src-only invocation would otherwise flag every bench-only name.
  if (!scanned_bench) return;
  for (const auto& [name, line] : entries) {
    if (used.count(name) == 0) {
      emit(*registry, line - 1, "metric-registry",
           "registry entry '" + name +
               "' has no remaining callsite under src/ or bench/; "
               "regenerate the registry with pitfalls-lint --write-names",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: stale-suppression — every tag must still suppress something
// ---------------------------------------------------------------------------

void check_stale_suppressions(const FileView& view,
                              std::vector<Violation>& out) {
  static const std::set<std::string> suppressible = [] {
    std::set<std::string> rules;
    for (const auto& r : rule_names())
      if (r != "stale-suppression") rules.insert(r);
    return rules;
  }();
  for (const auto& [line, rules] : view.tags) {
    for (const auto& rule : rules) {
      if (suppressible.count(rule) == 0) {
        out.push_back(Violation{
            view.path, line + 1, "stale-suppression",
            "suppression tag names unknown rule '" + rule +
                "'; see pitfalls-lint --list-rules"});
      } else if (view.used_tags.count({line, rule}) == 0) {
        out.push_back(Violation{
            view.path, line + 1, "stale-suppression",
            "suppression tag for rule '" + rule +
                "' no longer suppresses any violation; the audited "
                "exception it excused is gone — remove the tag"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string strip_comments_and_strings(const std::string& text) {
  return lex(text).stripped;
}

std::vector<std::string> rule_names() {
  return {"rng",           "wallclock",     "ordered",
          "chunk-rng",     "require-guard", "scalar-query",
          "arena",         "raw-io",        "capture-race",
          "layering",      "metric-registry", "stale-suppression"};
}

std::string rule_summary(const std::string& rule) {
  if (rule == "rng")
    return "All randomness flows through support::Rng (src/support/rng).";
  if (rule == "wallclock")
    return "No wall-clock reads outside src/obs; time never shapes a result.";
  if (rule == "ordered")
    return "No iteration over unordered containers; hash order is not "
           "deterministic.";
  if (rule == "chunk-rng")
    return "Parallel regions derive randomness via support::rng_for_chunk.";
  if (rule == "require-guard")
    return "Parameterised public headers carry PITFALLS_REQUIRE/ENSURE "
           "contracts.";
  if (rule == "scalar-query")
    return "Parallel chunk bodies under src/ml and src/puf use the batch "
           "query plane.";
  if (rule == "arena")
    return "Clause storage lives in sat::ClauseArena, not per-clause "
           "containers.";
  if (rule == "raw-io")
    return "File I/O flows through the crash-safe snapshot format.";
  if (rule == "capture-race")
    return "Parallel lambdas must not mutate by-reference captures outside "
           "the distinct-slot convention.";
  if (rule == "layering")
    return "#include edges respect the module DAG (support -> obs -> "
           "core/boolfn -> puf/circuit/sat -> ml/lock/attack -> store).";
  if (rule == "metric-registry")
    return "Every obs metric/span name is declared exactly once in "
           "src/obs/names.hpp.";
  if (rule == "stale-suppression")
    return "Suppression tags that no longer suppress a violation are "
           "errors.";
  return "pitfalls-lint rule.";
}

bool is_source_file(const std::string& path) {
  for (const char* ext : {".cpp", ".cc", ".hpp", ".h"}) {
    const std::string e(ext);
    if (path.size() > e.size() &&
        path.compare(path.size() - e.size(), e.size(), e) == 0)
      return true;
  }
  return false;
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::set<std::string> paths;
  for (const auto& root : roots) {
    if (fs::is_directory(root)) {
      fs::recursive_directory_iterator it(root), end;
      while (it != end) {
        // Fixture trees hold deliberate violations; only an explicit root
        // reaches inside them.
        if (it->is_directory() &&
            it->path().filename().string() == "lint_fixtures") {
          it.disable_recursion_pending();
        } else if (it->is_regular_file() &&
                   is_source_file(it->path().string())) {
          paths.insert(it->path().string());
        }
        ++it;
      }
    } else if (fs::is_regular_file(root)) {
      paths.insert(root);
    } else {
      throw std::runtime_error("pitfalls-lint: no such file or directory: " +
                               root);
    }
  }
  return std::vector<std::string>(paths.begin(), paths.end());
}

SourceFile load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);  // lint:raw-io-ok
  if (!in) throw std::runtime_error("pitfalls-lint: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SourceFile{path, buffer.str()};
}

std::string write_names_header(const std::vector<SourceFile>& files) {
  std::map<std::string, std::set<std::string>> names;  // name -> APIs
  for (const auto& file : files) {
    const std::string path = normalize_path(file.path);
    if (!in_metric_scope(path) || is_registry_file(path)) continue;
    const FileIndex index = index_file(lex(file.text));
    for (const auto& use : index.metric_uses)
      names[use.name].insert(use.api);
  }

  std::ostringstream out;
  out << "// The observability name registry: every metric/span name "
         "literal used\n"
         "// under src/ and bench/, exactly once. pitfalls-lint's "
         "metric-registry rule\n"
         "// checks callsites against this list, so bench JSON, baselines "
         "and\n"
         "// check_bench_json can never drift silently from the code.\n"
         "//\n"
         "// GENERATED FILE — regenerate after adding or renaming a name:\n"
         "//   pitfalls-lint --write-names=src/obs/names.hpp src bench\n"
         "#pragma once\n"
         "\n"
         "#include <cstddef>\n"
         "\n"
         "namespace pitfalls::obs::names {\n"
         "\n"
         "// clang-format off\n"
         "inline constexpr const char* kRegistered[] = {\n";
  for (const auto& [name, apis] : names) {
    out << "    \"" << name << "\",  //";
    for (const auto& api : apis) out << " " << api;
    out << "\n";
  }
  out << "};\n"
         "// clang-format on\n"
         "\n"
         "inline constexpr std::size_t kRegisteredCount =\n"
         "    sizeof(kRegistered) / sizeof(kRegistered[0]);\n"
         "\n"
         "}  // namespace pitfalls::obs::names\n";
  return out.str();
}

std::string dag_description() {
  std::ostringstream out;
  out << "modules:\n";
  for (const auto& module : dag_modules())
    out << "  " << module << ": layer " << module_layer(module) << "\n";
  out << "same-layer edges:\n"
      << "  core -> boolfn\n"
      << "  sat -> circuit\n"
      << "  attack -> ml\n"
      << "  attack -> lock\n";
  return out.str();
}

std::vector<Violation> run_lint(const std::vector<SourceFile>& files) {
  LintContext ctx;
  ctx.files.reserve(files.size());
  for (const auto& file : files) {
    FileView view;
    view.path = normalize_path(file.path);
    view.lexed = lex(file.text);
    view.stripped = view.lexed.stripped;
    view.lines = split_lines(view.stripped);
    view.tags = harvest_tags(view.lexed);
    view.index = index_file(view.lexed);
    view.is_header =
        view.path.size() > 2 &&
        (view.path.rfind(".hpp") == view.path.size() - 4 ||
         view.path.rfind(".h") == view.path.size() - 2);
    if (view.stripped.find("PITFALLS_REQUIRE") != std::string::npos ||
        view.stripped.find("PITFALLS_ENSURE") != std::string::npos)
      ctx.guarded_files.insert(view.path);
    auto names = collect_unordered_names(view.stripped);
    if (!names.empty()) {
      if (view.is_header)
        ctx.global_unordered.insert(names.begin(), names.end());
      else
        ctx.local_unordered[view.path] = std::move(names);
    }
    ctx.files.push_back(std::move(view));
  }
  std::sort(ctx.files.begin(), ctx.files.end(),
            [](const FileView& a, const FileView& b) { return a.path < b.path; });

  std::vector<Violation> out;
  for (const auto& view : ctx.files) {
    check_raw_rng(view, out);
    check_wallclock(view, out);
    check_ordered(ctx, view, out);
    check_chunk_rng(view, out);
    check_require_guard(ctx, view, out);
    check_scalar_query(view, out);
    check_arena(view, out);
    check_raw_io(view, out);
    check_capture_race(view, out);
  }
  check_layering(ctx, out);
  check_metric_registry(ctx, out);
  // Stale tags are judged after every other rule had its chance to consume
  // them (suppressed() records consumption).
  for (const auto& view : ctx.files) check_stale_suppressions(view, out);

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

}  // namespace pitfalls::lint
