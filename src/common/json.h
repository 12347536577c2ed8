// Minimal JSON value model, parser, and serializer for the query service's
// newline-delimited JSON protocol and the stats/bench exports. Covers the
// full JSON grammar (null, bool, number, string with escapes, array,
// object); numbers are stored as double (integers up to 2^53 round-trip
// exactly, which covers every counter this codebase emits).
//
// No external dependency: the container ships no JSON library, and the
// protocol needs only a few KB of code.

#ifndef RDFMR_COMMON_JSON_H_
#define RDFMR_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rdfmr {

/// \brief One JSON value. Objects keep insertion order is NOT preserved
/// (std::map, sorted keys) — serialization is therefore canonical, which
/// the tests rely on for byte comparisons.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}     // NOLINT
  JsonValue(int64_t n)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(uint64_t n)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(int n) : kind_(Kind::kNumber), number_(n) {}  // NOLINT
  JsonValue(std::string s)  // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  JsonValue(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}  // NOLINT
  JsonValue(Object o)  // NOLINT
      : kind_(Kind::kObject), object_(std::move(o)) {}

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  /// \brief The number truncated to an integer, or `fallback` unless it
  /// is a number in [0, 2^64) (a cast outside that range is undefined).
  uint64_t AsUint(uint64_t fallback = 0) const {
    return is_number() && number_ >= 0 && number_ < 18446744073709551616.0
               ? static_cast<uint64_t>(number_)
               : fallback;
  }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }

  /// \brief Object member access; returns a shared null value when absent
  /// or when this is not an object.
  const JsonValue& Get(const std::string& key) const;

  /// \brief Convenience typed getters over Get().
  std::string GetString(const std::string& key,
                        std::string fallback = "") const;
  uint64_t GetUint(const std::string& key, uint64_t fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  bool Has(const std::string& key) const;

  /// \brief Sets an object member (this must be an object).
  void Set(std::string key, JsonValue value);

  /// \brief Appends to an array (this must be an array).
  void Append(JsonValue value);

  /// \brief Compact single-line serialization (no trailing newline).
  /// Integral numbers print without a decimal point.
  std::string Dump() const;

  bool operator==(const JsonValue& o) const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// \brief Parses one JSON document; trailing garbage is an error.
Result<JsonValue> ParseJson(std::string_view text);

/// \brief Escapes `s` as the *inside* of a JSON string (no quotes added).
std::string JsonEscape(std::string_view s);

}  // namespace rdfmr

#endif  // RDFMR_COMMON_JSON_H_
