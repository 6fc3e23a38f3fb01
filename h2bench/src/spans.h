// In-memory span log for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer: name, start, end (steady-clock ns), the span that caused it, and
// one id per page load or request. They stay in memory until the run ends
// and are then written out as JSON lines. A null SpanLog* disables
// recording; ScopedSpan accepts one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace h2bench {

std::uint64_t now_ns() noexcept;

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the log, -1 = root
  std::uint64_t id = 0;      ///< load or request id
};

class SpanLog {
 public:
  /// Keeps the first `cap` spans (a live run completes ~10^6 requests; the
  /// first 10^5 or so describe it as well and keep the log ~10 MB).
  explicit SpanLog(std::size_t cap = 1u << 17) : cap_(cap) {}

  /// Open a span now; returns its index (-1 once the cap is reached).
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t id);
  void close(std::int64_t index);
  /// Record a finished span with explicit times.
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent,
                   std::uint64_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One JSON object per line; false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
};

/// RAII span on an optional log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t parent = -1,
             std::uint64_t id = 0)
      : log_(log), index_(log ? log->open(name, parent, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

}  // namespace h2bench
