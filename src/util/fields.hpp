#pragma once
/// \file fields.hpp
/// One field table per serialized struct.
///
/// A struct that is compared field by field or crosses a process boundary
/// (TaskSpec manifests as JSON, result records as CSV columns) lists its
/// members exactly once, in a table: an overload `field_table(const S*)`, found by argument-dependent
/// lookup, returns a tuple of Field entries, each a key name plus a member
/// pointer. Equality and the JSON writer and reader below are derived from
/// that table. Two rules follow:
///
///   * adding a field is one line in its struct's table (the table order
///     is the written key order);
///   * the reader rejects unknown, repeated and missing keys, values of
///     the wrong JSON type and integers that are not integers of the
///     member's type, naming the full key path (e.g. "spec.sim.num_vcs").
///     Only field_or() entries may be absent: they carry the value a
///     document written before the key existed means.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/jsonio.hpp"

namespace hxsp {

/// One table entry: the JSON/CSV key and the member it names.
template <class S, class T>
struct Field {
  const char* name;
  T S::*member;
  std::optional<T> if_absent;  ///< set: the key may be missing
};

/// A required key.
template <class S, class T>
Field<S, T> field(const char* name, T S::*member) {
  return {name, member, std::nullopt};
}

/// A key older documents may lack; a missing key reads as \p if_absent
/// (not deduced, so a literal 0 converts to the member's type).
template <class S, class T>
Field<S, T> field_or(const char* name, T S::*member,
                     typename std::common_type<T>::type if_absent) {
  return {name, member, std::move(if_absent)};
}

/// Calls \p fn on each Field of S's table, in table order.
template <class S, class Fn>
void for_each_field(Fn&& fn) {
  std::apply([&](const auto&... f) { (fn(f), ...); },
             field_table(static_cast<const S*>(nullptr)));
}

/// Member-wise equality over S's table.
template <class S>
bool fields_equal(const S& a, const S& b) {
  return std::apply(
      [&](const auto&... f) { return ((a.*f.member == b.*f.member) && ...); },
      field_table(&a));
}

namespace detail {
template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

inline std::string key_path(const std::string& path, const char* key) {
  return path.empty() ? std::string(key) : path + "." + key;
}

inline void expect_kind(const JsonValue& v, JsonValue::Kind kind,
                        const std::string& path) {
  HXSP_CHECK_MSG(v.kind() == kind,
                 ("wrong JSON type for key: " + path).c_str());
}
} // namespace detail

/// Writes \p v: scalars as JSON scalars (doubles with 17 significant
/// digits), enums through their enum_name() overload, vectors as arrays
/// and table structs as objects in table order.
template <class T>
void write_json(JsonWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    w.value(v);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    w.value(static_cast<std::int64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.value(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_enum_v<T>) {
    w.value(enum_name(v));
  } else if constexpr (detail::IsVector<T>::value) {
    w.begin_array();
    for (const auto& e : v) write_json(w, e);
    w.end_array();
  } else {
    w.begin_object();
    for_each_field<T>([&](const auto& f) {
      w.key(f.name);
      write_json(w, v.*f.member);
    });
    w.end_object();
  }
}

/// Inverse of write_json; \p path names \p v's key in messages ("" at the
/// document root). Enums read through their enum_from_name() overload.
template <class T>
void read_json(const JsonValue& v, T& out, const std::string& path) {
  using Kind = JsonValue::Kind;
  if constexpr (std::is_same_v<T, bool>) {
    detail::expect_kind(v, Kind::kBool, path);
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    detail::expect_kind(v, Kind::kNumber, path);
    out = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    detail::expect_kind(v, Kind::kString, path);
    out = v.as_string();
  } else if constexpr (std::is_integral_v<T>) {
    detail::expect_kind(v, Kind::kNumber, path);
    out = json_integer<T>(v, path);
  } else if constexpr (std::is_enum_v<T>) {
    detail::expect_kind(v, Kind::kString, path);
    enum_from_name(v.as_string(), out);
  } else if constexpr (detail::IsVector<T>::value) {
    detail::expect_kind(v, Kind::kArray, path);
    const std::vector<JsonValue>& items = v.array();
    out.assign(items.size(), typename T::value_type{});
    for (std::size_t i = 0; i < items.size(); ++i)
      read_json(items[i], out[i], path + "[" + std::to_string(i) + "]");
  } else {
    detail::expect_kind(v, Kind::kObject, path);
    const auto& table = field_table(&out);
    constexpr std::size_t n =
        std::tuple_size_v<std::decay_t<decltype(table)>>;
    const std::array<const char*, n> names = std::apply(
        [](const auto&... f) { return std::array<const char*, n>{f.name...}; },
        table);
    std::array<const JsonValue*, n> found{};
    for (const auto& [key, value] : v.object()) {
      std::size_t i = 0;
      while (i < n && key != names[i]) ++i;
      HXSP_CHECK_MSG(i < n, ("unknown key in JSON record: " +
                             detail::key_path(path, key.c_str())).c_str());
      HXSP_CHECK_MSG(found[i] == nullptr,
                     ("repeated key in JSON record: " +
                      detail::key_path(path, key.c_str())).c_str());
      found[i] = &value;
    }
    std::size_t i = 0;
    for_each_field<T>([&](const auto& f) {
      const std::string at = detail::key_path(path, f.name);
      if (const JsonValue* value = found[i++]) {
        read_json(*value, out.*f.member, at);
      } else {
        HXSP_CHECK_MSG(f.if_absent.has_value(),
                       ("missing key in JSON record: " + at).c_str());
        out.*f.member = *f.if_absent;
      }
    });
  }
}

} // namespace hxsp
