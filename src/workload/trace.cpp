#include "workload/trace.hpp"

#include "util/check.hpp"
#include "util/fileio.hpp"
#include "util/jsonio.hpp"

namespace hxsp {

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// \p v, the value of \p key (element \p index of it, unless kNoIndex) on
/// trace line \p line_no, as an int32. Aborts naming the line and key;
/// the name is only built then.
std::int32_t trace_int(const JsonValue& v, std::size_t line_no,
                       const char* key, std::size_t index = kNoIndex) {
  if (const std::optional<std::int32_t> x = json_integer_if<std::int32_t>(v))
    return *x;
  std::string what = "trace line " + std::to_string(line_no) + ": " + key;
  if (index != kNoIndex) what += "[" + std::to_string(index) + "]";
  return json_integer<std::int32_t>(v, what);
}

} // namespace

std::string trace_to_jsonl(const MessageList& msgs) {
  std::string out;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Message& m = msgs[i];
    JsonWriter w;
    w.begin_object();
    w.key("src").value(static_cast<std::int64_t>(m.src));
    w.key("dst").value(static_cast<std::int64_t>(m.dst));
    w.key("packets").value(m.packets);
    w.key("phase").value(m.phase);
    if (!msgs.deps(i).empty()) {
      w.key("deps").begin_array();
      for (const std::int32_t d : msgs.deps(i))
        w.value(static_cast<std::int64_t>(d));
      w.end_array();
    }
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

MessageList trace_from_jsonl(const std::string& text) {
  MessageList msgs;
  std::vector<std::int32_t> deps;
  std::size_t start = 0;
  for (std::size_t line_no = 1; start < text.size(); ++line_no) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    // Skip blank lines (trailing newline, hand-edited gaps).
    bool blank = true;
    for (char c : line)
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    if (blank) continue;

    const JsonValue v = JsonValue::parse(line);
    HXSP_CHECK_MSG(v.is_object(), "trace line is not a JSON object");
    Message m;
    m.src = trace_int(v.at("src"), line_no, "src");
    m.dst = trace_int(v.at("dst"), line_no, "dst");
    m.packets = trace_int(v.at("packets"), line_no, "packets");
    m.phase = trace_int(v.at("phase"), line_no, "phase");
    deps.clear();
    if (const JsonValue* d = v.find("deps")) {
      const std::vector<JsonValue>& items = d->array();
      for (std::size_t k = 0; k < items.size(); ++k)
        deps.push_back(trace_int(items[k], line_no, "deps", k));
    }
    msgs.push_back(m, deps);
  }
  return msgs;
}

MessageList load_trace_file(const std::string& path) {
  return trace_from_jsonl(read_file_or_die(path));
}

bool save_trace_file(const std::string& path, const MessageList& msgs) {
  return write_whole_file(path, trace_to_jsonl(msgs));
}

} // namespace hxsp
