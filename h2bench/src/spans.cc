#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace h2bench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t id) {
  const std::uint64_t t = now_ns();
  return add(name, t, t, parent, id);
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t SpanLog::add(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t parent,
                          std::uint64_t id) {
  if (spans_.size() >= cap_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 ", \"parent\": %" PRId64
                 ", \"id\": %" PRIu64 "}\n",
                 i, s.name, s.start_ns - origin, s.end_ns - origin, s.parent,
                 s.id);
  }
  return std::fclose(f) == 0;
}

}  // namespace h2bench
