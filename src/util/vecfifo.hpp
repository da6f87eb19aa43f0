#pragma once
/// \file vecfifo.hpp
/// Unbounded FIFO over one std::vector, for queues that most owners never
/// use: an empty VecFifo holds no heap storage (unlike std::deque, which
/// libstdc++ allocates on construction), so a million idle instances cost
/// only their 32-byte headers.
///
/// pop_front advances a head index; the consumed prefix is reclaimed when
/// the queue empties, or, before the vector would grow, once the prefix is
/// at least as long as the live part (each compaction moves no more
/// elements than it frees, so push/pop stay amortised O(1)). Storage is
/// therefore bounded by a small multiple of the peak live length, and a
/// drained queue keeps its capacity for the next burst.

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hxsp {

template <typename T>
class VecFifo {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  /// Elements the current storage holds without growing (0 = none).
  std::size_t capacity() const { return buf_.capacity(); }

  const T& front() const {
    HXSP_DCHECK(!empty());
    return buf_[head_];
  }

  void push_back(T v) {
    if (head_ > 0 && buf_.size() == buf_.capacity() &&
        head_ >= buf_.size() - head_) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.push_back(std::move(v));
  }

  /// Removes and returns the front element.
  T pop_front() {
    HXSP_DCHECK(!empty());
    T v = std::move(buf_[head_++]);
    if (head_ == buf_.size()) clear();
    return v;
  }

  /// Drops every element; the storage is kept.
  void clear() {
    buf_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

} // namespace hxsp
