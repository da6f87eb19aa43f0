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
#include <string>
#include <utility>
#include <vector>

namespace hxsp {

/// One parsed JSON value. Object member order is preserved; numbers keep
/// their textual form and are converted on access.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each aborts (HXSP_CHECK) on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  int as_int() const;
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
