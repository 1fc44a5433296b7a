// The one strict JSON reader behind the toolchain's two JSON inputs:
// grid specs (crp-grid-spec-v1, harness/gridspec.h) and shard
// manifests (crp-shard-manifest-v1, harness/shard.h). Each format is
// a schema function over the positioned tree this module parses; the
// tokenizer, the escape rules and the typed field getters live here
// once, so both documents are exactly as strict as each other.
//
// The grammar is the subset the writers emit: objects, arrays,
// strings, and numbers. Everything else — true/false/null, bare words
// such as nan or inf, duplicate keys, unescaped control characters,
// whitespace beyond space/tab/CR/LF, \u escapes wider than one byte,
// trailing content — is rejected at the position it occurs:
//
//   <document>: line L, column C: <message> (in field "a.b[1]")
//
// Numbers are kept as raw tokens; the getters validate them through
// the same parse_csv_unsigned / parse_csv_finite the CSV readers use.
//
/// Ownership: a Value owns its whole subtree. Reader is a view of its
/// document name and must not outlive the string it was built from.
///
/// Thread-safety: none needed — parsing is a pure function of the text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace crp::harness {

/// JSON string escaping as every writer emits it ('"', '\\', and
/// control characters escaped — \n \r \t by name, the rest as \u00xx;
/// every other byte verbatim), so each artifact the toolchain
/// produces quotes strings identically and the reader inverts it.
std::string json_escape(const std::string& s);

namespace json {

enum class Kind { kObject, kArray, kString, kNumber };

struct Member;

/// One parsed value and the 1-based position of its first byte.
struct Value {
  Kind kind = Kind::kString;
  std::size_t line = 1;
  std::size_t column = 1;
  std::string text;             ///< string contents, or the number token
  std::vector<Member> members;  ///< kObject, in document order
  std::vector<Value> items;     ///< kArray

  /// The member named `key`, or nullptr (keys are unique).
  const Value* find(std::string_view key) const;
};

struct Member {
  std::string key;
  std::size_t line = 1;  ///< position of the key
  std::size_t column = 1;
  Value value;
};

/// "line L, column C" of `at`.
std::string position(const Value& at);

/// Parser plus schema helpers for one document type. Its only state
/// is the document name that prefixes every error ("grid spec",
/// "shard manifest"); every error is a std::invalid_argument.
class Reader {
 public:
  constexpr explicit Reader(std::string_view document)
      : document_(document) {}

  /// Parses `text`, whose top level must be one object.
  Value parse(std::string_view text) const;

  /// "<document>: line L, column C" of `at`.
  std::string where(const Value& at) const;
  [[noreturn]] void fail_at(const Value& at, const std::string& message) const;

  /// The member `key` of `object`; a missing one fails as
  /// `missing field "<key>" of <what>`.
  const Value& require(const Value& object, const std::string& key,
                       const std::string& what) const;
  /// Rejects members outside `allowed` — a misspelled field must fail
  /// by name, never silently fall back to a default.
  void reject_unknown(const Value& object,
                      std::initializer_list<const char*> allowed,
                      const std::string& what) const;

  // Typed getters; `desc` names the value in the error ("field \"n\"").
  const Value& expect_kind(const Value& value, Kind kind,
                           const std::string& desc) const;
  std::string get_string(const Value& value, const std::string& desc) const;
  /// A plain non-negative decimal integer: no sign, point or exponent.
  std::uint64_t get_uint(const Value& value, const std::string& desc) const;
  double get_finite(const Value& value, const std::string& desc) const;
  /// An "0x..." string of 1–16 hex digits: a full 64-bit value, which
  /// a JSON number (a double) cannot carry.
  std::uint64_t get_hex_u64(const Value& value,
                            const std::string& desc) const;

 private:
  std::string_view document_;
};

}  // namespace json
}  // namespace crp::harness
