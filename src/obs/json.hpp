// Dependency-free JSON emission and parsing for the observability layer.
//
//   * JsonWriter — streaming writer with automatic comma/nesting management
//     and correct string escaping. Non-finite doubles are serialized as the
//     quoted strings "inf" / "-inf" / "nan" (JSON has no literals for them;
//     quoting keeps the document valid and the saturation unambiguous, the
//     same role Table::fmt_or_inf plays for ASCII cells).
//   * JsonTokenizer — the one JSON grammar in the tree: a pull tokenizer
//     over a complete document. Each next() returns one token and checks
//     the grammar on the way, so a caller that reads to kEnd has checked the
//     whole document. Strings come back as views into the text, unescaped
//     into a reused buffer only when they hold a backslash; numbers are read
//     with std::from_chars. Open containers live on a heap stack of one byte
//     each, so no nesting depth can overflow the call stack. The serve wire
//     decodes job lines straight from it (serve/job.hpp).
//   * JsonValue — a DOM built on the tokenizer, used by the bench-output
//     validator and the tests. Object member order is preserved. Documents
//     nested deeper than JsonValue::kMaxDepth are refused with a parse
//     error, because the DOM's own destructor recurses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pitfalls::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Member name inside an object; must be followed by exactly one value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(std::int64_t{number}); }
  JsonWriter& null_value();

  /// The finished document; all containers must be closed.
  const std::string& str() const&;
  /// The same, moved out of a writer that is done with it.
  std::string str() &&;

  /// Escape `raw` for embedding between JSON quotes (no surrounding quotes).
  static std::string escape(std::string_view raw);

 private:
  void before_value();
  void raw(std::string_view text) { out_.append(text); }

  struct Frame {
    char kind;                 // '{' or '['
    bool first = true;         // no comma before the first member
    bool key_pending = false;  // object frame: key() seen, value expected
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool root_written_ = false;
};

class JsonTokenizer {
 public:
  enum class Token {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kName,  // an object member's name; the member's value follows
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
    kEnd,  // the root value is complete and only whitespace follows it
  };

  explicit JsonTokenizer(std::string_view text) : text_(text) {}

  /// The next token. Throws std::runtime_error with the byte offset at the
  /// first byte the grammar refuses (trailing garbage included); after kEnd
  /// it keeps returning kEnd.
  Token next();

  /// The unescaped text of the kName or kString just read: a view into the
  /// document, or into a buffer the next string with an escape reuses.
  std::string_view text() const { return string_; }

  /// The value of the kNumber just read.
  double number() const { return number_; }

  /// Containers open after the token just read.
  std::size_t depth() const { return open_.size(); }

  /// Consume the rest of the value whose first token was `first` (nothing
  /// for a scalar), checking its grammar. Iterative, whatever its depth.
  void skip(Token first);

  /// Throw this tokenizer's parse error at the current byte.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  // What the grammar allows next: a value; after '[' a value or ']'; after
  // '{' a name or '}'; after a value ',' or the closer, or the end.
  enum class Expect { kValue, kValueOrEnd, kNameOrEnd, kAfterValue };

  void skip_ws();
  char peek() const;
  Token value();
  Token name();
  Token close();
  Token literal(std::string_view word, Token token);
  Token number_token();
  void read_string();
  void unescape_rest();
  unsigned hex4();
  void append_unicode_escape();

  std::string_view text_;
  std::size_t pos_ = 0;
  Expect expect_ = Expect::kValue;
  std::vector<char> open_;  // '{' or '[' per open container, innermost last
  std::string_view string_;
  std::string buffer_;
  double number_ = 0.0;
};

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// Deepest container nesting parse() accepts.
  static constexpr std::size_t kMaxDepth = 512;

  Kind kind = Kind::Null;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                               // arrays
  std::vector<std::pair<std::string, JsonValue>> members;     // objects

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member with this name, or nullptr (objects only).
  const JsonValue* find(std::string_view name) const;

  /// Parse a complete document; throws std::runtime_error with the byte
  /// offset on malformed input (including trailing garbage) and on nesting
  /// deeper than kMaxDepth.
  static JsonValue parse(std::string_view text);
};

}  // namespace pitfalls::obs
