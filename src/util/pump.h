// The byte pump: the one loop that moves wire bytes from a protocol endpoint
// (the source) to a transport (the sink), shared by both ends of a
// simulated TCP session and by the live epoll transport.
//
// A source has
//   bool want_write() const;
//   std::size_t produce_into(util::WireOut& out, std::size_t max_bytes,
//                            WriteCap cap);
// (h2::Connection, http1::ClientConnection, http1::ServerConnection), which
// appends at most ~max_bytes to `out` (util/wire.h) and returns the count
// appended: owned bytes into out.owned(), body bytes through
// append_borrowed(), which a sink may keep by reference.
//
// A sink has
//   static constexpr WriteCap kCap;         // how the budget may be used
//   std::size_t budget();                   // bytes it takes now; 0 = full
//   util::WireOut& buffer();                // where the source appends
//   void commit(std::size_t appended);      // hand over what was appended
//
// The sink, not a setting, picks the cap policy: the simulator's TCP sides
// take a soft cap (the figures depend on its one-frame overshoot), a live
// socket buffer a hard one (its high watermark is a memory bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/wire.h"

namespace h2push::util {

/// How a source may treat the byte budget a sink grants.
enum class WriteCap : std::uint8_t {
  /// Keep emitting whole control chunks and DATA frames while under the
  /// budget: a call may overshoot by one of them.
  kSoft,
  /// Never exceed the budget: control frames split at byte granularity,
  /// DATA frames sized down to what is left.
  kHard,
};

/// Move bytes from `source` to `sink` until the sink has no budget or the
/// source produces nothing. `commit` may re-enter the pump on the same
/// sink (sim::TcpConnection signals writability from inside commit), so a
/// sink's buffer() is its transport's own send buffer, or one whose bytes
/// `commit` consumes before anything that can re-enter.
template <class Source, class Sink>
void pump(Source& source, Sink&& sink) {
  while (source.want_write()) {
    const std::size_t budget = sink.budget();
    if (budget == 0) return;
    const std::size_t appended = source.produce_into(
        sink.buffer(), budget, std::decay_t<Sink>::kCap);
    if (appended == 0) return;
    sink.commit(appended);
  }
}

}  // namespace h2push::util
