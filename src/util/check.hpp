#pragma once
/// \file check.hpp
/// Assertion macros used across hxsp.
///
/// HXSP_CHECK is always compiled in (cheap invariants, config validation).
/// HXSP_DCHECK compiles to nothing in NDEBUG builds and guards the
/// expensive simulator invariants (credit conservation, buffer bounds).

#include <cstdio>
#include <cstdlib>
#include <string>

namespace hxsp::detail {
/// Defined in telemetry/flight_recorder.cpp (every target links the hxsp
/// library): writes each live FlightRecorder's ring of recent engine
/// events to stderr. A no-op unless some Network enabled
/// SimConfig::flight_recorder, so plain aborts stay terse.
void dump_flight_recorders_on_abort();

[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const char* msg) {
  std::fprintf(stderr, "hxsp check failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg ? msg : "");
  dump_flight_recorders_on_abort();
  std::abort();
}
} // namespace hxsp::detail

#define HXSP_CHECK(expr)                                                          \
  do {                                                                            \
    if (!(expr)) ::hxsp::detail::check_failed(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define HXSP_CHECK_MSG(expr, msg)                                              \
  do {                                                                         \
    if (!(expr)) ::hxsp::detail::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (0)

#ifdef NDEBUG
#define HXSP_DCHECK(expr) ((void)0)
#else
#define HXSP_DCHECK(expr) HXSP_CHECK(expr)
#endif

namespace hxsp {
/// Aborts unless \p value >= \p min, naming \p key and the value
/// ("spec.warmup = -10 is below 0"): the range check of a field read from
/// a manifest or a command line. The failure reports the caller's file
/// and line (\p file and \p line default to the call site).
inline void check_at_least(long long value, long long min,
                           const std::string& key,
                           const char* file = __builtin_FILE(),
                           int line = __builtin_LINE()) {
  if (value >= min) return;
  detail::check_failed("value >= min", file, line,
                       (key + " = " + std::to_string(value) + " is below " +
                        std::to_string(min))
                           .c_str());
}
} // namespace hxsp
