#pragma once
/// \file grid.hpp
/// Grid expansion and deterministic sharding of TaskSpecs.
///
/// Every figure is a grid of independent TaskSpecs. A TaskGrid collects a
/// driver's expansion in its canonical order and assigns each task its
/// stable id ("driver/NNNNNN", fixed-width index). Sharding is a pure
/// function of (task index, shard): task i belongs to shard i % count —
/// round-robin, so expensive tail configurations spread evenly — and the
/// union of all shards is exactly the grid, in an order that sorting by
/// task id restores. That property is what makes "run shards on two
/// hosts, merge the sinks" byte-identical to one uninterrupted run.

#include <cstddef>
#include <string>
#include <vector>

#include "harness/taskspec.hpp"

namespace hxsp {

/// Which slice of a manifest an hxsp_runner process runs; parsed from
/// --shard=i/n.
struct ShardSpec {
  int index = 0;  ///< in [0, count)
  int count = 1;

  /// Parses "i/n" ("0/1", "2/4", ...); aborts (HXSP_CHECK) on malformed
  /// input or index out of range.
  static ShardSpec parse(const std::string& text);

  /// True when grid index \p i belongs to this shard.
  bool covers(std::size_t i) const {
    return static_cast<int>(i % static_cast<std::size_t>(count)) == index;
  }
};

/// An ordered TaskSpec list with stable ids. The expansion order IS the
/// canonical result order; append tasks exactly in the order the serial
/// driver would run them.
class TaskGrid {
 public:
  explicit TaskGrid(std::string driver);

  const std::string& driver() const { return driver_; }

  /// Appends \p task, stamping task.id = make_task_id(driver, size());
  /// returns the stored task's grid index.
  std::size_t add(TaskSpec task);

  std::size_t size() const { return tasks_.size(); }
  const std::vector<TaskSpec>& tasks() const { return tasks_; }
  const TaskSpec& operator[](std::size_t i) const { return tasks_[i]; }

  /// The grid as a --emit-tasks manifest (JSON array of TaskSpecs).
  std::string manifest_json() const { return manifest_to_json(tasks_); }

 private:
  std::string driver_;
  std::vector<TaskSpec> tasks_;
};

} // namespace hxsp
