#pragma once
/// \file trace.hpp
/// JSONL message-trace codec.
///
/// A trace file holds one JSON object per line, one line per message:
///
///   {"src":0,"dst":5,"packets":4,"phase":0}
///   {"src":5,"dst":0,"packets":4,"phase":1,"deps":[0]}
///
/// "src"/"dst" are server ids, "packets" the message size in network
/// packets, "phase" the reporting/default-dependency phase, and the
/// optional "deps" array lists the indices (0-based line numbers) of
/// messages that must be fully consumed before this one may start.
/// When *no* line in the file carries deps, the loader in
/// workload/workload.cpp applies the default per-server phase wiring
/// (wire_phase_deps). Blank lines are ignored. Every number must be an
/// integer that fits its field (32-bit signed), or the loader aborts
/// naming the line and key: 2^32 + k must not read as k. The codec
/// round-trips losslessly: parse(write(msgs)) == msgs, and re-writing a
/// parsed trace reproduces it byte for byte.

#include <string>

#include "workload/workload.hpp"

namespace hxsp {

/// Renders \p msgs as JSONL (one newline-terminated object per message;
/// "deps" emitted only when non-empty).
std::string trace_to_jsonl(const MessageList& msgs);

/// Inverse of trace_to_jsonl. Aborts (HXSP_CHECK) on malformed lines or
/// missing required keys. No dependency wiring or validation happens
/// here — see TraceReplay / validate_workload.
MessageList trace_from_jsonl(const std::string& text);

/// Reads and parses \p path; aborts when the file cannot be read.
MessageList load_trace_file(const std::string& path);

/// Writes trace_to_jsonl(msgs) to \p path. Returns false on I/O error.
bool save_trace_file(const std::string& path, const MessageList& msgs);

} // namespace hxsp
