// The byte pump: the one loop that moves wire bytes from a protocol endpoint
// (the source) to a transport (the sink), shared by the simulator's TCP
// glue and the live epoll transport.
//
// A source has
//   bool want_write() const;
//   std::size_t produce_into(std::vector<std::uint8_t>& out,
//                            std::size_t max_bytes, WriteCap cap);
// (h2::Connection, http1::ClientConnection, http1::ServerConnection), which
// appends at most ~max_bytes to `out` and returns the count appended.
//
// A sink has
//   static constexpr WriteCap kCap;         // how the budget may be used
//   std::size_t budget();                   // bytes it takes now; 0 = full
//   std::vector<std::uint8_t>& buffer();    // where the source appends
//   void commit(std::span<const std::uint8_t> bytes);  // hand them over
//
// The sink, not a setting, picks the cap policy: the simulator's TCP sides
// take a soft cap (the figures depend on its one-frame overshoot), a live
// socket buffer a hard one (its high watermark is a memory bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

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
/// sink (sim::TcpConnection signals writability from inside send); the
/// bytes it is handed are not read again once it returns, so a sink may
/// hand out one reused buffer as long as `commit` consumes the bytes
/// before anything that can re-enter — or hand out the transport's own
/// send buffer, so the source appends straight into it and `commit` only
/// takes the count (the simulator's server side does).
template <class Source, class Sink>
void pump(Source& source, Sink&& sink) {
  while (source.want_write()) {
    const std::size_t budget = sink.budget();
    if (budget == 0) return;
    std::vector<std::uint8_t>& out = sink.buffer();
    const std::size_t start = out.size();
    if (source.produce_into(out, budget, std::decay_t<Sink>::kCap) == 0) {
      return;
    }
    sink.commit(std::span<const std::uint8_t>(out).subspan(start));
  }
}

/// Sink for a writer that copies what it is handed — each side of the
/// simulator's TCP model, with `bool writable()`, `std::size_t
/// write_chunk()` and `void send(std::span<const std::uint8_t>)`. The
/// source appends into `staging`, cleared per turn and reused across turns
/// and connections; `send` copies the bytes out before it can re-enter the
/// pump. Soft cap: every produce call and its bytes are the ones the
/// simulator's figures were recorded with.
template <class Writer>
struct StagedSink {
  static constexpr WriteCap kCap = WriteCap::kSoft;

  Writer& writer;
  std::vector<std::uint8_t>& staging;

  std::size_t budget() const {
    return writer.writable() ? writer.write_chunk() : 0;
  }
  std::vector<std::uint8_t>& buffer() {
    staging.clear();
    return staging;
  }
  void commit(std::span<const std::uint8_t> bytes) { writer.send(bytes); }
};

}  // namespace h2push::util
