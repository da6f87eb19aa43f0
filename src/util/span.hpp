#pragma once
/// \file span.hpp
/// Read-only view of a contiguous run: the accessor type of the repo's
/// flat (compressed sparse row) tables, e.g. Graph's port lists and a
/// MessageList's dependency lists.

#include <cstddef>

namespace hxsp {

/// Read-only view of a contiguous run of \p T.
template <typename T>
class ConstSpan {
 public:
  ConstSpan(const T* first, const T* last) : first_(first), last_(last) {}
  const T* begin() const { return first_; }
  const T* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  const T& operator[](std::size_t i) const { return first_[i]; }

 private:
  const T* first_;
  const T* last_;
};

} // namespace hxsp
