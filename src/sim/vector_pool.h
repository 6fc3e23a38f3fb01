// Per-thread recycling of the vectors a simulated session grows.
//
// A page load builds its links and TCP connections afresh, and each would
// otherwise grow its send buffer or departure queue from empty again. A
// VectorPool keeps the vectors of finished ones so the next starts at the
// capacity an earlier one grew to. It is bounded in count and in total
// capacity: an idle pool holds at most kBytes of element storage, and
// larger vectors are simply freed.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace h2push::sim {

template <typename T, std::size_t kCount = 16, std::size_t kBytes = 1u << 20>
class VectorPool {
 public:
  /// The largest pooled vector (empty), or a fresh one.
  std::vector<T> acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    bytes_ -= v.capacity() * sizeof(T);
    return v;
  }

  void release(std::vector<T>&& v) {
    const std::size_t bytes = v.capacity() * sizeof(T);
    if (bytes == 0 || free_.size() == kCount || bytes_ + bytes > kBytes) {
      return;
    }
    v.clear();
    // Kept ordered by capacity, largest last.
    auto at = free_.begin();
    while (at != free_.end() && at->capacity() < v.capacity()) ++at;
    free_.insert(at, std::move(v));
    bytes_ += bytes;
  }

 private:
  std::vector<std::vector<T>> free_;
  std::size_t bytes_ = 0;
};

}  // namespace h2push::sim
