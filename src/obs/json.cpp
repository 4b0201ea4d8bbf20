#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "support/require.hpp"

namespace pitfalls::obs {

// ---------------------------------------------------------------- JsonWriter

void JsonWriter::before_value() {
  if (stack_.empty()) {
    PITFALLS_REQUIRE(!root_written_, "JSON document has exactly one root");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.kind == '{') {
    PITFALLS_REQUIRE(top.key_pending, "object members need key() first");
    top.key_pending = false;
  } else {
    if (!top.first) raw(",");
    top.first = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back({'{'});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '{',
                   "end_object without matching begin_object");
  PITFALLS_REQUIRE(!stack_.back().key_pending, "dangling key without value");
  stack_.pop_back();
  raw("}");
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back({'['});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '[',
                   "end_array without matching begin_array");
  stack_.pop_back();
  raw("]");
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '{',
                   "key() is only valid inside an object");
  Frame& top = stack_.back();
  PITFALLS_REQUIRE(!top.key_pending, "two keys in a row");
  if (!top.first) raw(",");
  top.first = false;
  top.key_pending = true;
  raw("\"");
  raw(escape(name));
  raw("\":");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  raw("\"");
  raw(escape(text));
  raw("\"");
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  raw(flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) {
    // fmt_or_inf semantics: saturate into an explicit quoted marker.
    if (std::isnan(number)) return value(std::string_view("nan"));
    return value(std::string_view(number > 0 ? "inf" : "-inf"));
  }
  before_value();
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  PITFALLS_ENSURE(res.ec == std::errc{}, "double formatting failed");
  raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  before_value();
  raw("null");
  return *this;
}

const std::string& JsonWriter::str() const& {
  PITFALLS_REQUIRE(stack_.empty() && root_written_,
                   "document incomplete: unclosed container or no root");
  return out_;
}

std::string JsonWriter::str() && {
  (void)str();  // *this is an lvalue here: the const& overload's check
  return std::move(out_);
}

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

// ------------------------------------------------------------- JsonTokenizer

namespace {

using Token = JsonTokenizer::Token;

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

}  // namespace

void JsonTokenizer::fail(const std::string& what) const {
  throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) +
                           ": " + what);
}

void JsonTokenizer::skip_ws() {
  // Locals, not members, in the loop: a char read may alias *this.
  std::size_t pos = pos_;
  const std::size_t size = text_.size();
  while (pos < size) {
    const char c = text_[pos];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos;
  }
  pos_ = pos;
}

char JsonTokenizer::peek() const {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

Token JsonTokenizer::next() {
  skip_ws();
  switch (expect_) {
    case Expect::kValue:
      return value();
    case Expect::kValueOrEnd:
      return peek() == ']' ? close() : value();
    case Expect::kNameOrEnd:
      return peek() == '}' ? close() : name();
    case Expect::kAfterValue:
      break;
  }
  if (open_.empty()) {
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return Token::kEnd;
  }
  const bool in_object = open_.back() == '{';
  const char c = peek();
  if (c == ',') {
    ++pos_;
    skip_ws();
    return in_object ? name() : value();
  }
  if (c != (in_object ? '}' : ']'))
    fail(in_object ? "expected ',' or '}'" : "expected ',' or ']'");
  return close();
}

Token JsonTokenizer::close() {
  const bool object = open_.back() == '{';
  open_.pop_back();
  ++pos_;
  expect_ = Expect::kAfterValue;
  return object ? Token::kEndObject : Token::kEndArray;
}

Token JsonTokenizer::value() {
  expect_ = Expect::kAfterValue;
  switch (peek()) {
    case '{':
      ++pos_;
      open_.push_back('{');
      expect_ = Expect::kNameOrEnd;
      return Token::kBeginObject;
    case '[':
      ++pos_;
      open_.push_back('[');
      expect_ = Expect::kValueOrEnd;
      return Token::kBeginArray;
    case '"':
      read_string();
      return Token::kString;
    case 't':
      return literal("true", Token::kTrue);
    case 'f':
      return literal("false", Token::kFalse);
    case 'n':
      return literal("null", Token::kNull);
    default:
      return number_token();
  }
}

Token JsonTokenizer::name() {
  if (peek() != '"') fail("expected '\"'");
  read_string();
  skip_ws();
  if (peek() != ':') fail("expected ':'");
  ++pos_;
  expect_ = Expect::kValue;
  return Token::kName;
}

Token JsonTokenizer::literal(std::string_view word, Token token) {
  if (text_.substr(pos_, word.size()) != word) fail("bad literal");
  pos_ += word.size();
  return token;
}

Token JsonTokenizer::number_token() {
  const std::size_t start = pos_;
  std::size_t end = start;
  if (text_[end] == '-') ++end;
  while (end < text_.size() && is_number_char(text_[end])) ++end;
  pos_ = end;
  if (end == start) fail("expected a value");
  const auto res =
      std::from_chars(text_.data() + start, text_.data() + end, number_);
  if (res.ec != std::errc{} || res.ptr != text_.data() + end)
    fail("malformed number");
  return Token::kNumber;
}

void JsonTokenizer::read_string() {
  const std::size_t start = ++pos_;  // past the opening quote
  const char* begin = text_.data() + start;
  const std::size_t rest = text_.size() - start;
  const auto* quote = static_cast<const char*>(std::memchr(begin, '"', rest));
  const std::size_t length =
      quote != nullptr ? static_cast<std::size_t>(quote - begin) : rest;
  const auto* backslash =
      static_cast<const char*>(std::memchr(begin, '\\', length));
  if (quote != nullptr && backslash == nullptr) {  // no escape: a view
    string_ = text_.substr(start, length);
    pos_ = start + length + 1;
    return;
  }
  if (backslash == nullptr) {
    pos_ = text_.size();
    fail("unterminated string");
  }
  pos_ = start + static_cast<std::size_t>(backslash - begin);
  buffer_.assign(begin, static_cast<std::size_t>(backslash - begin));
  unescape_rest();
  string_ = buffer_;
}

void JsonTokenizer::unescape_rest() {
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return;
    if (c != '\\') {
      buffer_ += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': buffer_ += '"'; break;
      case '\\': buffer_ += '\\'; break;
      case '/': buffer_ += '/'; break;
      case 'b': buffer_ += '\b'; break;
      case 'f': buffer_ += '\f'; break;
      case 'n': buffer_ += '\n'; break;
      case 'r': buffer_ += '\r'; break;
      case 't': buffer_ += '\t'; break;
      case 'u': append_unicode_escape(); break;
      default: fail("unknown escape");
    }
  }
}

unsigned JsonTokenizer::hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    code <<= 4;
    if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return code;
}

void JsonTokenizer::append_unicode_escape() {
  unsigned code = hex4();
  if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: need the pair
    if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
        text_[pos_ + 1] != 'u')
      fail("high surrogate without a following \\u low surrogate");
    pos_ += 2;
    const unsigned low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("unpaired low surrogate");
  }
  // UTF-8 encode.
  if (code < 0x80) {
    buffer_ += static_cast<char>(code);
  } else if (code < 0x800) {
    buffer_ += static_cast<char>(0xC0 | (code >> 6));
    buffer_ += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    buffer_ += static_cast<char>(0xE0 | (code >> 12));
    buffer_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buffer_ += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    buffer_ += static_cast<char>(0xF0 | (code >> 18));
    buffer_ += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    buffer_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buffer_ += static_cast<char>(0x80 | (code & 0x3F));
  }
}

void JsonTokenizer::skip(Token first) {
  if (first != Token::kBeginObject && first != Token::kBeginArray) return;
  const std::size_t outer = open_.size() - 1;
  while (open_.size() > outer) next();
}

// ----------------------------------------------------------------- JsonValue

const JsonValue* JsonValue::find(std::string_view name) const {
  for (const auto& [key, value] : members)
    if (key == name) return &value;
  return nullptr;
}

JsonValue JsonValue::parse(std::string_view text) {
  JsonTokenizer tokens(text);
  JsonValue root;
  // The containers being filled, innermost last. Each points into its
  // parent's vector, which only grows once the child has been closed.
  std::vector<JsonValue*> open;
  std::string name;  // the pending member's name
  while (true) {
    const Token token = tokens.next();
    switch (token) {
      case Token::kEnd:
        return root;
      case Token::kEndObject:
      case Token::kEndArray:
        open.pop_back();
        continue;
      case Token::kName:
        name.assign(tokens.text());
        continue;
      default:
        break;
    }
    JsonValue* slot = &root;
    if (!open.empty()) {
      JsonValue& parent = *open.back();
      slot = parent.is_array()
                 ? &parent.items.emplace_back()
                 : &parent.members.emplace_back(std::move(name), JsonValue{})
                        .second;
    }
    JsonValue& value = *slot;
    switch (token) {
      case Token::kBeginObject:
        value.kind = Kind::Object;
        break;
      case Token::kBeginArray:
        value.kind = Kind::Array;
        break;
      case Token::kString:
        value.kind = Kind::String;
        value.string_value.assign(tokens.text());
        break;
      case Token::kNumber:
        value.kind = Kind::Number;
        value.number_value = tokens.number();
        break;
      case Token::kTrue:
      case Token::kFalse:
        value.kind = Kind::Bool;
        value.bool_value = token == Token::kTrue;
        break;
      default:  // kNull
        break;
    }
    if (value.is_object() || value.is_array()) {
      if (tokens.depth() > kMaxDepth)
        tokens.fail("nesting deeper than " + std::to_string(kMaxDepth));
      open.push_back(&value);
    }
  }
}

}  // namespace pitfalls::obs
