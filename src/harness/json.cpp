#include "harness/json.h"

#include <cctype>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "harness/csv.h"

namespace crp::harness {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace json {

namespace {

std::string position(std::size_t line, std::size_t column) {
  return "line " + std::to_string(line) + ", column " +
         std::to_string(column);
}

/// A byte as an error message quotes it: printable ASCII as itself,
/// anything else (control bytes, bytes of multi-byte UTF-8) as \xNN,
/// so a stray \v or NUL shows instead of printing as nothing.
std::string quoted_byte(char c) {
  const auto byte = static_cast<unsigned char>(c);
  if (byte >= 0x20 && byte < 0x7f) return std::string(1, c);
  char buf[8];
  std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned>(byte));
  return buf;
}

class Parser {
 public:
  Parser(std::string_view document, std::string_view text)
      : document_(document), text_(text) {}

  Value parse() {
    Value root = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after the top-level object");
    }
    return root;
  }

 private:
  /// Fails at the cursor, naming the field path being parsed.
  [[noreturn]] void fail(const std::string& message) const {
    std::string where;
    if (!path_.empty()) {
      where = " (in field \"";
      for (std::size_t i = 0; i < path_.size(); ++i) {
        if (i > 0 && path_[i][0] != '[') where += '.';
        where += path_[i];
      }
      where += "\")";
    }
    throw std::invalid_argument(std::string(document_) + ": " +
                                position(line_, col_) + ": " + message +
                                where);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }

  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
                      peek() == '\n')) {
      advance();
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) {
      std::string message = "expected '";
      message.push_back(c);
      message += eof() ? "', got end of input"
                       : "', got '" + quoted_byte(peek()) + "'";
      fail(message);
    }
    advance();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!eof() && peek() != '"') {
      char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      advance();
      if (c == '\\') {
        if (eof()) break;
        const char esc = peek();
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': break;  // the code point follows the escape byte
          default:
            // Fail on the escape byte itself, before moving past it.
            fail("unsupported escape \\" + quoted_byte(esc) + " in string");
        }
        advance();
        if (esc == 'u') {
          // json_escape emits \u00xx for control characters; accept
          // any code point that fits one byte, reject anything wider
          // (no writer produces it).
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char hc = peek();
            if (!std::isxdigit(static_cast<unsigned char>(hc))) {
              fail("malformed \\u escape in string");
            }
            code = code * 16 +
                   static_cast<unsigned>(hc <= '9'   ? hc - '0'
                                         : hc <= 'F' ? hc - 'A' + 10
                                                     : hc - 'a' + 10);
            advance();
          }
          if (code > 0xFF) fail("\\u escape beyond one byte in string");
          c = static_cast<char>(code);
        }
      }
      out.push_back(c);
    }
    if (eof()) fail("unterminated string");
    advance();  // closing quote
    return out;
  }

  Value parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input; expected a value");
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    Value value;
    value.line = line_;
    value.column = col_;
    if (c == '"') {
      value.kind = Kind::kString;
      value.text = parse_string();
      return value;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      value.kind = Kind::kNumber;
      while (!eof() && (peek() == '-' || peek() == '+' || peek() == '.' ||
                        peek() == 'e' || peek() == 'E' ||
                        (peek() >= '0' && peek() <= '9'))) {
        value.text.push_back(peek());
        advance();
      }
      return value;
    }
    fail("unexpected character '" + quoted_byte(c) +
         "' — expected an object, array, string, or number "
         "(true/false/null and bare words such as nan or inf are not "
         "part of the grammar)");
  }

  Value parse_object() {
    Value object;
    object.kind = Kind::kObject;
    object.line = line_;
    object.column = col_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      advance();
      return object;
    }
    while (true) {
      skip_ws();
      Member member;
      member.line = line_;
      member.column = col_;
      member.key = parse_string();
      for (const Member& existing : object.members) {
        if (existing.key == member.key) {
          throw std::invalid_argument(
              std::string(document_) + ": " +
              position(member.line, member.column) + ": duplicate field \"" +
              member.key + "\"");
        }
      }
      expect(':');
      path_.push_back(member.key);
      member.value = parse_value();
      path_.pop_back();
      object.members.push_back(std::move(member));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}');
      return object;
    }
  }

  Value parse_array() {
    Value array;
    array.kind = Kind::kArray;
    array.line = line_;
    array.column = col_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      advance();
      return array;
    }
    while (true) {
      path_.push_back(
          std::string("[").append(std::to_string(array.items.size())) + "]");
      array.items.push_back(parse_value());
      path_.pop_back();
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string_view document_;
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
  std::vector<std::string> path_;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const Member& member : members) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

std::string position(const Value& at) { return position(at.line, at.column); }

Value Reader::parse(std::string_view text) const {
  Value root = Parser(document_, text).parse();
  if (root.kind != Kind::kObject) {
    fail_at(root, "the " + std::string(document_) + " must be a JSON object");
  }
  return root;
}

std::string Reader::where(const Value& at) const {
  return std::string(document_) + ": " + position(at);
}

void Reader::fail_at(const Value& at, const std::string& message) const {
  throw std::invalid_argument(where(at) + ": " + message);
}

const Value& Reader::require(const Value& object, const std::string& key,
                             const std::string& what) const {
  const Value* value = object.find(key);
  if (value == nullptr) {
    fail_at(object, "missing field \"" + key + "\" of " + what);
  }
  return *value;
}

void Reader::reject_unknown(const Value& object,
                            std::initializer_list<const char*> allowed,
                            const std::string& what) const {
  for (const Member& member : object.members) {
    bool known = false;
    for (const char* key : allowed) {
      if (member.key == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument(
          std::string(document_) + ": " +
          position(member.line, member.column) + ": unknown field \"" +
          member.key + "\" of " + what);
    }
  }
}

const Value& Reader::expect_kind(const Value& value, Kind kind,
                                 const std::string& desc) const {
  if (value.kind != kind) {
    const char* name = kind == Kind::kObject   ? "an object"
                       : kind == Kind::kArray  ? "an array"
                       : kind == Kind::kString ? "a string"
                                               : "a number";
    fail_at(value, desc + " must be " + name);
  }
  return value;
}

std::string Reader::get_string(const Value& value,
                               const std::string& desc) const {
  return expect_kind(value, Kind::kString, desc).text;
}

std::uint64_t Reader::get_uint(const Value& value,
                               const std::string& desc) const {
  expect_kind(value, Kind::kNumber, desc);
  const auto parsed = parse_csv_unsigned(value.text);
  if (!parsed) {
    fail_at(value, desc + " must be a plain non-negative integer, got \"" +
                       value.text + "\"");
  }
  return *parsed;
}

double Reader::get_finite(const Value& value, const std::string& desc) const {
  expect_kind(value, Kind::kNumber, desc);
  const auto parsed = parse_csv_finite(value.text);
  if (!parsed) {
    fail_at(value, desc + " must be a finite number, got \"" + value.text +
                       "\"");
  }
  return *parsed;
}

std::uint64_t Reader::get_hex_u64(const Value& value,
                                  const std::string& desc) const {
  const std::string raw = get_string(value, desc);
  if (raw.size() < 3 || raw.size() > 18 || raw[0] != '0' || raw[1] != 'x') {
    fail_at(value,
            desc + " must be an \"0x...\" hex string, got \"" + raw + "\"");
  }
  std::uint64_t result = 0;
  for (std::size_t i = 2; i < raw.size(); ++i) {
    const char c = raw[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      fail_at(value, desc + " has a non-hex digit in \"" + raw + "\"");
    }
    result = result * 16 + static_cast<std::uint64_t>(digit);
  }
  return result;
}

}  // namespace json
}  // namespace crp::harness
