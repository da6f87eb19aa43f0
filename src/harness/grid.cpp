#include "harness/grid.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace hxsp {

ShardSpec ShardSpec::parse(const std::string& text) {
  // Strict: the whole string must be consumed ("1x/2" or "1/2," would
  // otherwise silently run the wrong slice of a multi-host sweep).
  ShardSpec s;
  const char* p = text.c_str();
  char* end = nullptr;
  s.index = static_cast<int>(std::strtol(p, &end, 10));
  HXSP_CHECK_MSG(end != p && *end == '/',
                 "--shard expects i/n, e.g. --shard=0/2");
  p = end + 1;
  s.count = static_cast<int>(std::strtol(p, &end, 10));
  HXSP_CHECK_MSG(end != p && *end == '\0',
                 "--shard expects i/n, e.g. --shard=0/2");
  HXSP_CHECK_MSG(s.count >= 1 && s.index >= 0 && s.index < s.count,
                 "--shard index out of range (need 0 <= i < n)");
  return s;
}

TaskGrid::TaskGrid(std::string driver) : driver_(std::move(driver)) {}

std::size_t TaskGrid::add(TaskSpec task) {
  task.id = make_task_id(driver_, tasks_.size());
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

} // namespace hxsp
