#pragma once
/// \file options.hpp
/// Minimal command-line option parser shared by benches and examples.
///
/// Accepted syntax:  --key=value | --key value | --flag
/// Unknown positional arguments are collected separately. Typed getters
/// return a default when the key is absent and abort with a clear message
/// on malformed values, so every bench gets consistent CLI behaviour
/// without pulling in an external dependency.

#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace hxsp {

/// Parsed command line. Construct once in main() and query by key.
class Options {
 public:
  Options() = default;

  /// Parses argv; aborts on syntactically invalid input ("--" alone).
  Options(int argc, const char* const* argv);

  /// True when --key was given (with or without a value).
  bool has(const std::string& key) const;

  /// String value of --key, or \p def when absent.
  std::string get(const std::string& key, const std::string& def) const;

  /// Integer value of --key, or \p def when absent. Aborts naming the
  /// flag when the value is not an integer or does not fit a long.
  long get_int(const std::string& key, long def) const;

  /// get_int for a field of type \p T: aborts naming the flag when the
  /// value does not fit \p T, instead of narrowing it (--side=4294967298
  /// would otherwise set a side of 2).
  template <typename T>
  T get_int_as(const std::string& key, T def) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                  "get_int_as reads integer types");
    using Lim = std::numeric_limits<T>;
    const long v = get_int(key, static_cast<long>(def));
    bool fits = false;
    if constexpr (std::is_signed_v<T>)
      fits = v >= Lim::min() && v <= Lim::max();
    else
      fits = v >= 0 && static_cast<unsigned long>(v) <= Lim::max();
    HXSP_CHECK_MSG(fits, range_error(key, std::to_string(v),
                                     std::to_string(Lim::min()),
                                     std::to_string(Lim::max()))
                             .c_str());
    return static_cast<T>(v);
  }

  /// Floating-point value of --key, or \p def when absent.
  double get_double(const std::string& key, double def) const;

  /// Boolean: present with no value or value in {1,true,yes,on} => true.
  bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated list of doubles, e.g. --loads=0.1,0.2,0.3.
  std::vector<double> get_double_list(const std::string& key,
                                      const std::vector<double>& def) const;

  /// Comma-separated list of strings.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::vector<std::string>& def) const;

  /// Positional (non --key) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Name of the program (argv[0]), for usage messages.
  const std::string& program() const { return program_; }

  /// Records a key as recognised; unrecognised keys trigger a warning via
  /// warn_unknown(). Getters register keys automatically.
  void warn_unknown() const;

 private:
  /// "--key = value is not an integer in [lo, hi]".
  static std::string range_error(const std::string& key,
                                 const std::string& value,
                                 const std::string& lo, const std::string& hi);

  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> seen_;
};

/// Splits \p s on \p sep, trimming nothing; empty fields preserved.
std::vector<std::string> split(const std::string& s, char sep);

} // namespace hxsp
