#pragma once
/// \file jsonio.hpp
/// Minimal JSON tree reader/writer for the harness serialization layer.
///
/// The distributed sweep API ships ExperimentSpecs and TaskSpecs between
/// processes as JSON manifests (results travel as CSV, see
/// metrics/resultsink.hpp). This utility provides the smallest tree model
/// that round-trips those payloads losslessly: numbers are kept as their
/// raw tokens (written with 17 significant digits for doubles), so
/// parse(write(x)) == x bit-exactly.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hxsp {

/// One parsed JSON value. Object member order is preserved; numbers keep
/// their textual form and are converted on access.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each aborts (HXSP_CHECK) on a kind mismatch, and
  /// the integer ones on a number that is not an integer of their type.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  int as_int() const;

  /// The number as an integer when its token is one (an optional minus
  /// sign and digits, no fraction or exponent) inside the type's range;
  /// std::nullopt otherwise, and for a value that is not a number.
  std::optional<std::int64_t> to_i64() const;
  std::optional<std::uint64_t> to_u64() const;

  /// The source token of a number, the payload of a string ("" otherwise);
  /// error messages quote it.
  const std::string& text() const { return scalar_; }

  const std::string& as_string() const;
  const std::vector<JsonValue>& array() const;
  const std::vector<std::pair<std::string, JsonValue>>& object() const;

  /// Member lookup on an object: find() returns nullptr when absent,
  /// at() aborts with the key name in the message.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;

  /// Parses \p text as one JSON document (aborts on malformed input or
  /// trailing garbage).
  static JsonValue parse(const std::string& text);

 private:
  friend class JsonParserImpl;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< number token or string payload
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// \p v as an integer of type T: std::nullopt unless \p v is an integer
/// token (no fraction or exponent) inside T's range.
template <class T>
std::optional<T> json_integer_if(const JsonValue& v) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "json_integer_if reads integer types");
  using Lim = std::numeric_limits<T>;
  if constexpr (std::is_signed_v<T>) {
    const std::optional<std::int64_t> x = v.to_i64();
    if (x && *x >= Lim::min() && *x <= Lim::max()) return static_cast<T>(*x);
  } else {
    const std::optional<std::uint64_t> x = v.to_u64();
    if (x && *x <= Lim::max()) return static_cast<T>(*x);
  }
  return std::nullopt;
}

/// \p v as an integer of type T. Aborts with "<what> = <token> is not an
/// integer in [min, max]" when \p v is not a number, is not an integer, or
/// does not fit T: a narrowing cast would silently alias 2^32 + k to k.
template <class T>
T json_integer(const JsonValue& v, const std::string& what) {
  using Lim = std::numeric_limits<T>;
  const std::optional<T> out = json_integer_if<T>(v);
  HXSP_CHECK_MSG(out.has_value(),
                 (what + " = " +
                  (v.kind() == JsonValue::Kind::kNumber ? v.text()
                                                        : "(not a number)") +
                  " is not an integer in [" + std::to_string(Lim::min()) +
                  ", " + std::to_string(Lim::max()) + "]")
                     .c_str());
  return *out;
}

/// Streaming JSON writer with automatic comma placement. Keys/values must
/// be emitted in a well-formed order (object -> key -> value); doubles are
/// written with 17 significant digits, strings fully escaped.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& name);
  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);

  const std::string& str() const { return out_; }

 private:
  void separate();  ///< emits "," before a sibling element when needed

  std::string out_;
  std::vector<bool> first_;  ///< per open scope: no element emitted yet
  bool after_key_ = false;
};

/// Escapes \p s for embedding in a JSON string literal (no quotes added).
std::string json_escape_string(const std::string& s);

} // namespace hxsp
