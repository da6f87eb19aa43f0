#include "util/jsonio.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace hxsp {

namespace {

std::string fmt_double17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

// ---------------------------------------------------------------------------
// JsonValue accessors.
// ---------------------------------------------------------------------------

bool JsonValue::as_bool() const {
  HXSP_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  HXSP_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return std::strtod(scalar_.c_str(), nullptr);
}

std::int64_t JsonValue::as_i64() const {
  HXSP_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return static_cast<std::int64_t>(std::strtoll(scalar_.c_str(), nullptr, 10));
}

std::uint64_t JsonValue::as_u64() const {
  HXSP_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

int JsonValue::as_int() const { return static_cast<int>(as_i64()); }

const std::string& JsonValue::as_string() const {
  HXSP_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return scalar_;
}

const std::string& JsonValue::number_token() const {
  HXSP_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  HXSP_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::object() const {
  HXSP_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  HXSP_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  HXSP_CHECK_MSG(v != nullptr, ("missing JSON key: " + key).c_str());
  return *v;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the full value grammar.
// ---------------------------------------------------------------------------

class JsonParserImpl {
 public:
  explicit JsonParserImpl(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    HXSP_CHECK_MSG(pos_ == s_.size(), "trailing garbage after JSON document");
    return v;
  }

 private:
  char peek() {
    HXSP_CHECK_MSG(pos_ < s_.size(), "JSON input truncated");
    return s_[pos_];
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  void expect(char c) {
    skip_ws();
    HXSP_CHECK_MSG(peek() == c, "unexpected character in JSON input");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      c = peek();
      ++pos_;
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          HXSP_CHECK_MSG(pos_ + 4 <= s_.size(), "JSON \\u escape truncated");
          const unsigned long code =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          HXSP_CHECK_MSG(code < 0x80, "non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          HXSP_CHECK_MSG(false, "unsupported JSON escape");
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind_ = JsonValue::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string_body();
        expect(':');
        v.object_.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind_ = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array_.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      v.scalar_ = parse_string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number token: sign, digits, dot, exponent.
    v.kind_ = JsonValue::Kind::kNumber;
    while (pos_ < s_.size()) {
      const char n = s_[pos_];
      if ((n >= '0' && n <= '9') || n == '-' || n == '+' || n == '.' ||
          n == 'e' || n == 'E') {
        v.scalar_ += n;
        ++pos_;
      } else {
        break;
      }
    }
    HXSP_CHECK_MSG(!v.scalar_.empty(), "malformed JSON value");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParserImpl(text).parse_document();
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

std::string json_escape_string(const std::string& s) {
  std::string out;
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  HXSP_CHECK(!first_.empty());
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  HXSP_CHECK(!first_.empty());
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separate();
  out_ += '"';
  out_ += json_escape_string(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  separate();
  out_ += '"';
  out_ += json_escape_string(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* s) { return value(std::string(s)); }

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  out_ += fmt_double17(d);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

} // namespace hxsp
