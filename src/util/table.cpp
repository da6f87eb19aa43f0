#include "util/table.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace hxsp {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& v) {
  HXSP_CHECK_MSG(!rows_.empty(), "call row() before cell()");
  rows_.back().push_back(v);
  return *this;
}

Table& Table::cell(long v) { return cell(std::to_string(v)); }

Table& Table::cell(double v, int precision) { return cell(format_double(v, precision)); }

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  auto emit_row = [&](const std::vector<std::string>& r, std::string& out) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& v = c < r.size() ? r[c] : std::string();
      out += v;
      if (c + 1 < width.size()) out += std::string(width[c] - v.size() + 2, ' ');
    }
    out += '\n';
  };

  std::string out;
  emit_row(headers_, out);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  out += std::string(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& r : rows_) emit_row(r, out);
  return out;
}

} // namespace hxsp
