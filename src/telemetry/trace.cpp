/// \file trace.cpp
/// Chrome-trace and JSONL exporters for sampled packet hop streams.

#include "telemetry/trace.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "util/jsonio.hpp"

namespace hxsp {

const char* trace_event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kInject: return "inject";
    case TraceEvent::kArrive: return "arrive";
    case TraceEvent::kGrant: return "grant";
    case TraceEvent::kEject: return "eject";
  }
  return "?";
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

} // namespace

std::string trace_chrome_json(const std::vector<TaskTrace>& tasks) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < tasks.size(); ++pid) {
    const TaskTrace& task = tasks[pid];
    if (task.hops == nullptr) continue;
    if (!first) out += ",";
    first = false;
    append_fmt(out,
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
               "\"args\":{\"name\":\"",
               pid);
    out += json_escape_string(task.task_id);
    out += "\"}}";
    for (const TraceHop& h : *task.hops) {
      append_fmt(out,
                 ",\n{\"name\":\"%s n%d p%d v%d\",\"ph\":\"X\","
                 "\"ts\":%" PRId64 ",\"dur\":1,\"pid\":%zu,"
                 "\"tid\":%" PRId64 ",\"args\":{\"event\":\"%s\","
                 "\"node\":%d,\"port\":%d,\"vc\":%d}}",
                 trace_event_name(h.event), h.node, h.port, h.vc,
                 static_cast<std::int64_t>(h.cycle), pid, h.packet,
                 trace_event_name(h.event), h.node, h.port, h.vc);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string trace_jsonl(const std::vector<TaskTrace>& tasks) {
  std::string out;
  for (const TaskTrace& task : tasks) {
    if (task.hops == nullptr) continue;
    const std::string prefix =
        "{\"task\":\"" + json_escape_string(task.task_id) + "\"";
    for (const TraceHop& h : *task.hops) {
      out += prefix;
      append_fmt(out,
                 ",\"packet\":%" PRId64 ",\"cycle\":%" PRId64
                 ",\"event\":\"%s\",\"node\":%d,\"port\":%d,\"vc\":%d}\n",
                 h.packet, static_cast<std::int64_t>(h.cycle),
                 trace_event_name(h.event), h.node, h.port, h.vc);
    }
  }
  return out;
}

} // namespace hxsp
