// Loopback H2 load client for the live workloads: closed or open loop.
//
// Built directly on h2::Connection and util/posix over one epoll set on the
// calling thread. In the closed loop every connection keeps `depth`
// requests in flight, which gives the delivered rate of this
// flow-controlled protocol. In the open loop requests are due on a fixed
// schedule (Poisson arrivals) whatever the server does, and each latency
// is timed from when the request was *due*, not from when it was sent, so
// a stall is charged to every request it delays. How late the generator
// itself sent (`lag_ms`) is reported so a run whose generator fell behind
// can be told apart.
//
// A request completes when its own stream and every stream promised on it
// have closed; with push on, one landing-page request is one whole page.
// A completion whose body bytes differ from the target's counts as failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace h2bench {

struct Target {
  std::string host;
  std::string path;
  /// DATA bytes the request must deliver, pushed streams included.
  std::uint64_t body_bytes = 0;
};

struct LoadPlan {
  std::uint16_t port = 0;
  int connections = 1;
  bool enable_push = false;
  /// Request mix, round-robin. Must outlive the call.
  const std::vector<Target>* targets = nullptr;
  /// Closed loop: requests in flight per connection.
  int depth = 8;
  /// A connection carries at most this many requests; it is then closed
  /// once idle and replaced by a fresh one, as a browser's connection
  /// carries one page's worth of requests (0 = no limit).
  int requests_per_connection = 0;
  /// Open loop when non-null: due offsets (ns) from the phase start.
  const std::vector<std::uint64_t>* schedule = nullptr;
  /// Open loop: a synthetic generator stall — the schedule's origin lies
  /// this far before the first send, so early requests go out late.
  std::uint64_t stall_ns = 0;
  /// Closed loop: measuring time. Open loop: schedule length.
  double duration_s = 1;
  /// Rates are taken per window of this length.
  double window_s = 0.5;
  /// How long to wait for outstanding requests after the end.
  double grace_s = 3;
  SpanLog* spans = nullptr;
  std::int64_t parent_span = -1;
};

struct LoadStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  ///< with the expected bytes
  std::uint64_t failed = 0;     ///< wrong bytes, reset, or lost
  std::uint64_t body_bytes = 0;
  std::uint64_t push_promises = 0;
  std::vector<double> latency_ms;   ///< per completed request
  std::vector<std::size_t> latency_target;  ///< its index in the targets
  std::vector<double> lag_ms;       ///< open loop: sent - due
  std::vector<double> window_rate;  ///< completions/s per full window
  std::vector<double> window_mb_s;  ///< body MB/s per full window
  double elapsed_s = 0;
  std::string error;  ///< setup failure (connect), empty otherwise
};

LoadStats run_client(const LoadPlan& plan);

}  // namespace h2bench
