// HTTP/2 connection endpoint.
//
// One Connection instance is either the client or the server end of an H2
// session. It speaks real bytes: the write side serializes frames (control
// frames first, then scheduler-chosen DATA), the read side runs the
// incremental FrameParser and HPACK decoder. Both endpoints in a simulation
// are instances of this class wired together through the TCP model, so the
// full framing/HPACK path is exercised on every simulated page load.
//
// Flow control (RFC 7540 §5.2) is enforced on the send path against both
// the per-stream and the connection window; the receive path auto-issues
// WINDOW_UPDATEs assuming the application consumes data immediately (true
// for both our browser and replay server).
//
// The stream table holds live streams only: a stream leaves it once both
// sides are done with it or either side resets it, so a connection's
// stream memory is bounded by its concurrent streams, not by the requests
// it has served. Stream ids are never reused (§5.1.1), so each side's
// high-water mark tells the rest apart: an id at or below the mark of the
// side that opens it and not in the table is closed; one above is idle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "h2/frame.h"
#include "h2/hpack.h"
#include "h2/priority.h"
#include "http/message.h"
#include "util/id_map.h"
#include "util/pump.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::h2 {

enum class Role : std::uint8_t { kClient, kServer };

/// Immutable response body shared across runs (bytes are real content: the
/// browser parses HTML/CSS bodies it receives through the connection).
using Body = std::shared_ptr<const std::string>;

class Connection : private FrameHandler {
 public:
  struct Config {
    Role role = Role::kClient;
    std::uint32_t max_frame_size = kDefaultMaxFrameSize;
    /// Our SETTINGS_INITIAL_WINDOW_SIZE (receive direction). Chromium-like
    /// clients announce large windows so server push is not window-bound.
    std::uint32_t initial_window = kDefaultInitialWindow;
    /// Extra connection-level WINDOW_UPDATE announced at startup.
    std::uint32_t connection_window_bonus = 0;
    /// Client only: SETTINGS_ENABLE_PUSH (the paper's "no push" arm signals
    /// 0 here, §2.1).
    bool enable_push = true;
    std::size_t header_table_size = 4096;
  };

  struct Callbacks {
    /// Complete header block received: a request (server role) or response
    /// (client role). The block is the connection's decode buffer, reused
    /// for the next header block: copy what must outlive the call.
    std::function<void(std::uint32_t stream, const http::HeaderBlock&,
                       bool end_stream)>
        on_headers;
    std::function<void(std::uint32_t stream, std::span<const std::uint8_t>,
                       bool end_stream)>
        on_data;
    /// Client role: PUSH_PROMISE received on `parent` (the request block
    /// is reused like on_headers').
    std::function<void(std::uint32_t parent, std::uint32_t promised,
                       const http::HeaderBlock& request_headers)>
        on_push_promise;
    std::function<void(std::uint32_t stream, ErrorCode)> on_rst;
    std::function<void()> on_remote_settings;
    std::function<void(const std::string&)> on_connection_error;
    /// New bytes are available to write; the transport glue should pump.
    std::function<void()> on_write_ready;
    /// A stream fully closed (both directions done); not called for a
    /// stream either side reset.
    std::function<void(std::uint32_t stream)> on_stream_closed;
    /// Extension (non-RFC-7540) frame received, e.g. CACHE_DIGEST.
    std::function<void(const ExtensionFrame&)> on_extension_frame;
  };

  Connection(Config config, Callbacks callbacks);

  /// Queue the connection preface (client) and initial SETTINGS.
  void start();

  // --- client API ---
  /// Returns the new (odd) stream id.
  std::uint32_t submit_request(const http::HeaderBlock& headers,
                               std::optional<PrioritySpec> priority = {});
  void submit_priority(std::uint32_t stream, const PrioritySpec& spec);
  void submit_rst(std::uint32_t stream, ErrorCode error);
  /// Queue an extension frame (e.g. a CACHE_DIGEST after SETTINGS).
  void submit_extension(const ExtensionFrame& frame);

  /// Queue a GOAWAY advertising the highest peer stream processed, without
  /// tearing the connection down: in-flight streams still drain. Used by
  /// the live daemon's graceful SIGTERM drain (src/net/).
  void submit_goaway(ErrorCode error = ErrorCode::kNoError,
                     const std::string& debug_data = "");

  // --- server API ---
  /// Reserve an (even) push stream on `parent`; queues PUSH_PROMISE.
  /// Returns 0 if the peer disabled push or the parent is gone.
  std::uint32_t submit_push_promise(std::uint32_t parent,
                                    const http::HeaderBlock& request_headers);
  /// Queue response HEADERS and hand the body to the scheduler-driven
  /// write path. An empty body closes the stream with the headers.
  void submit_response(std::uint32_t stream, const http::HeaderBlock& headers,
                       Body body);

  // --- transport glue ---
  /// Feed received bytes. Borrowed ones (util/wire.h) let a DATA payload
  /// split across deliveries reach on_data as a view into its body.
  void receive(util::WireBytes bytes);
  void receive(std::span<const std::uint8_t> bytes) {
    receive(util::WireBytes{bytes});
  }
  bool want_write() const;
  /// True when nothing is queued AND no stream still holds response data —
  /// even flow-control-blocked data want_write() would not report. The
  /// drain-safe close condition for the live daemon.
  bool send_quiescent() const;
  /// Append up to `max_bytes` of wire bytes to `out` — control frames
  /// first, then scheduler-chosen DATA — and return the count appended.
  /// One emitter, two cap policies (util/pump.h), picked by the sink that
  /// is writing:
  ///  - kSoft (the simulator's TCP sides): whole control chunks and DATA
  ///    frames while under the budget, so a call may overshoot by one
  ///    control chunk or one DATA frame (9 + peer max frame size bytes);
  ///    frames are never split across scheduling decisions.
  ///  - kHard (live socket buffers, src/net/): never more than `max_bytes`.
  ///    Control frames are split at byte granularity (the next call
  ///    resumes mid-frame); DATA frames are sized down to the budget left.
  ///    A return of 0 with want_write() still true means the budget could
  ///    not fit a DATA frame header — call again once the sink drains.
  /// DATA payloads go through out.append_borrowed(), so a sink that keeps
  /// references (the simulator's TCP send buffer) receives them without a
  /// copy; the returned count includes them.
  std::size_t produce_into(util::WireOut& out, std::size_t max_bytes,
                           util::WriteCap cap = util::WriteCap::kHard);
  /// produce_into, every byte copied into `out` (outside the pump: for
  /// h2bench and tests).
  std::size_t produce_into(std::vector<std::uint8_t>& out,
                           std::size_t max_bytes,
                           util::WriteCap cap = util::WriteCap::kHard) {
    util::WireOut copying(out);
    return produce_into(copying, max_bytes, cap);
  }
  /// produce_into under the soft cap, into a fresh vector.
  std::vector<std::uint8_t> produce(std::size_t max_bytes);

  /// The DATA scheduler. The server configures its hard switch (the
  /// paper's interleaving) once the pushes of a trigger are promised.
  TreeScheduler& scheduler() { return scheduler_; }

  /// Attach a trace recorder: per-frame send/recv instants, flow-control
  /// window counters, DATA scheduling switch points, and the scheduler's
  /// pause / resume instants on `track`.
  void set_trace(trace::TraceRecorder* recorder, std::uint32_t track) {
    trace_ = recorder;
    trace_track_ = track;
    scheduler_.set_trace(recorder, track);
  }

  // --- introspection ---
  bool push_enabled_by_peer() const noexcept { return peer_enable_push_; }
  /// True for a stream that was opened and has since closed or been
  /// reset; false for a live stream and for an id not yet opened (idle).
  bool stream_closed(std::uint32_t stream) const {
    return opened(stream) && !streams_.contains(stream);
  }
  std::uint64_t total_data_sent() const noexcept { return total_data_sent_; }
  const std::string& last_error() const noexcept { return last_error_; }
  /// Error code of the GOAWAY we sent (kNoError while healthy).
  ErrorCode last_error_code() const noexcept { return last_error_code_; }
  /// Live streams: opened and neither closed nor reset.
  std::size_t stream_count() const noexcept { return streams_.size(); }
  /// Bytes the frame parser copied to reassemble frames split across
  /// received chunks (FrameParser::copied_bytes).
  std::uint64_t parser_copied_bytes() const noexcept {
    return parser_.copied_bytes();
  }

  /// Self-check of the connection's accounting invariants (receive windows
  /// never negative, send windows within RFC bounds, body cursors inside
  /// their bodies, the count of streams with a body in step). Returns a
  /// description of the first violation, or nullopt when consistent. Used
  /// by the fuzzing harness after every chunk of adversarial input.
  std::optional<std::string> check_invariants() const;

 private:
  struct Stream {
    std::int64_t send_window = kDefaultInitialWindow;
    std::int64_t recv_window = kDefaultInitialWindow;
    std::uint64_t recv_unacked = 0;  // consumed but not yet window-updated
    Body body;  // set while response data is left to send
    std::size_t body_offset = 0;
    bool local_done = false;   // we will send no more
    bool remote_done = false;  // peer sent END_STREAM
  };

  void queue_control(const Frame& frame);
  /// Encode `headers` into the reusable HPACK scratch buffer and queue a
  /// HEADERS (or, with `promised_id`, PUSH_PROMISE) frame built directly in
  /// the control queue — no intermediate Frame variant or block copy.
  void queue_header_frame(std::uint32_t stream_id,
                          const http::HeaderBlock& headers, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::uint32_t promised_id = 0);
  void trace_send(std::string_view name, std::uint32_t stream,
                  std::int64_t bytes);
  void connection_error(ErrorCode code, const std::string& message);
  // FrameHandler: the parse loop's frames, DATA and header blocks by view.
  void on_data(const DataView& frame) override;
  void on_header_block(const HeaderBlockView& frame) override;
  void on_frame(Frame&& frame) override;
  void on_push_promise(const HeaderBlockView& frame);
  /// Decode into decoded_; a failure is a connection error.
  bool decode_header_block(std::span<const std::uint8_t> block);
  void trace_receive(std::string_view name, std::uint32_t stream,
                     std::int64_t bytes);
  void apply_remote_settings(const SettingsFrame& frame);
  /// Add a stream to the table with the windows in force.
  Stream& open_stream(std::uint32_t id);
  /// Erase stream `id`, which is `s`, from the table (it closed or was
  /// reset) and drop it from the scheduler.
  void retire(std::uint32_t id, const Stream& s);
  /// Retire `id` once both sides are done with it.
  void maybe_close(std::uint32_t id);
  /// Nonzero and at or below the high-water mark of the side that opens
  /// `id`: the stream is live or closed, not idle.
  bool opened(std::uint32_t id) const noexcept {
    const bool ours = (id % 2 == 1) == (config_.role == Role::kClient);
    return id != 0 && (ours ? id < next_stream_id_ : id <= max_peer_stream_);
  }
  bool data_ready(std::uint32_t id) const;
  bool control_pending() const noexcept {
    return control_chunk_ < control_ends_.size();
  }
  /// Drop emitted control bytes (all of them once the queue drains).
  void compact_control();
  void signal_write();

  Config config_;
  Callbacks callbacks_;
  FrameParser parser_;
  HpackEncoder encoder_;
  HpackDecoder decoder_;
  http::HeaderBlock decoded_;  // the last header block decoded, reused
  TreeScheduler scheduler_;

  // Live streams only, in no useful order. Opening a stream may move the
  // others: hold no Stream& across open_stream() or a callback.
  util::IdMap<Stream> streams_;
  std::size_t streams_with_body_ = 0;  // live streams whose body is set
  std::uint32_t next_stream_id_;  // odd (client) / even (server pushes)
  // Highest stream id the peer has opened / promised. Unknown ids above it
  // are idle, and most frames on them are protocol errors (§5.1.1).
  std::uint32_t max_peer_stream_ = 0;
  bool preface_pending_ = false;  // server expects the client preface
  std::vector<std::uint8_t> preface_buf_;
  bool started_ = false;

  // Peer-announced settings governing our send path.
  std::uint32_t peer_max_frame_size_ = kDefaultMaxFrameSize;
  std::uint32_t peer_initial_window_ = kDefaultInitialWindow;
  bool peer_enable_push_ = true;

  std::int64_t send_window_ = kDefaultInitialWindow;   // connection-level
  std::int64_t recv_window_ = kDefaultInitialWindow;
  std::uint64_t recv_unacked_ = 0;

  // Control frames waiting to go out, in one reused buffer: the bytes, and
  // where each queued chunk (a frame, or HEADERS + CONTINUATIONs) ends —
  // the soft cap emits whole chunks.
  std::vector<std::uint8_t> control_bytes_;
  std::vector<std::size_t> control_ends_;
  std::size_t control_chunk_ = 0;   // first chunk not fully emitted
  std::size_t control_offset_ = 0;  // control bytes emitted so far
  std::vector<std::uint8_t> hpack_scratch_;  // reused per header block
  std::uint64_t total_data_sent_ = 0;
  std::string last_error_;
  ErrorCode last_error_code_ = ErrorCode::kNoError;
  bool errored_ = false;

  trace::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::uint32_t last_data_stream_ = 0;  // trace-only: DATA switch detection
};

}  // namespace h2push::h2
