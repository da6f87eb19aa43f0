#pragma once
/// \file table.hpp
/// Console table emitter used by the benchmark harness.
///
/// Every bench prints an aligned human-readable table mirroring the
/// paper's figures/tables; CSV files go through ResultSink.

#include <string>
#include <vector>

namespace hxsp {

/// Row-oriented table builder. Cells are strings; numeric helpers format
/// consistently (fixed precision) so columns line up.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();

  /// Appends a string cell to the current row.
  Table& cell(const std::string& v);

  /// Appends an integer cell.
  Table& cell(long v);

  /// Appends a floating-point cell with \p precision decimals.
  Table& cell(double v, int precision = 3);

  /// Renders the aligned table to a string (header + separator + rows).
  std::string str() const;

  /// Number of data rows so far.
  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
std::string format_double(double v, int precision);

} // namespace hxsp
