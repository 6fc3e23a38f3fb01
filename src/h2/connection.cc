#include "h2/connection.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace h2push::h2 {
namespace {

struct FrameTraceInfo {
  std::string_view name;
  std::uint32_t stream = 0;
  std::int64_t bytes = 0;  // payload-ish size for DATA/header blocks
};

FrameTraceInfo frame_trace_info(const Frame& frame) {
  return std::visit(
      [](const auto& f) -> FrameTraceInfo {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          return {to_string(FrameType::kData), f.stream_id,
                  static_cast<std::int64_t>(f.data.size())};
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          return {to_string(FrameType::kHeaders), f.stream_id,
                  static_cast<std::int64_t>(f.header_block.size())};
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          return {to_string(FrameType::kPriority), f.stream_id, 5};
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          return {to_string(FrameType::kRstStream), f.stream_id, 4};
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          return {to_string(FrameType::kSettings), 0,
                  static_cast<std::int64_t>(f.settings.size() * 6)};
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          return {to_string(FrameType::kPushPromise), f.stream_id,
                  static_cast<std::int64_t>(f.header_block.size() + 4)};
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          return {to_string(FrameType::kPing), 0, 8};
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          return {to_string(FrameType::kGoaway), 0,
                  static_cast<std::int64_t>(f.debug_data.size() + 8)};
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          return {to_string(FrameType::kWindowUpdate), f.stream_id, 4};
        } else {
          static_assert(std::is_same_v<T, ExtensionFrame>);
          return {"EXTENSION", f.stream_id,
                  static_cast<std::int64_t>(f.payload.size())};
        }
      },
      frame);
}

}  // namespace

Connection::Connection(Config config, Callbacks callbacks)
    : config_(config),
      callbacks_(std::move(callbacks)),
      parser_(config.max_frame_size),
      encoder_(config.header_table_size),
      decoder_(config.header_table_size),
      next_stream_id_(config.role == Role::kClient ? 1 : 2),
      preface_pending_(config.role == Role::kServer) {
  // The decoder's size-update cap is whatever we announce in SETTINGS.
  decoder_.set_max_table_size(config.header_table_size);
}

void Connection::start() {
  if (started_) return;
  started_ = true;
  if (config_.role == Role::kClient) {
    auto preface = client_preface();
    control_bytes_.insert(control_bytes_.end(), preface.begin(), preface.end());
    control_ends_.push_back(control_bytes_.size());
  }
  SettingsFrame settings;
  settings.settings.emplace_back(SettingsId::kHeaderTableSize,
                                 static_cast<std::uint32_t>(
                                     config_.header_table_size));
  settings.settings.emplace_back(SettingsId::kInitialWindowSize,
                                 config_.initial_window);
  settings.settings.emplace_back(SettingsId::kMaxFrameSize,
                                 config_.max_frame_size);
  if (config_.role == Role::kClient) {
    settings.settings.emplace_back(SettingsId::kEnablePush,
                                   config_.enable_push ? 1u : 0u);
  }
  queue_control(Frame{settings});
  if (config_.connection_window_bonus > 0) {
    queue_control(Frame{WindowUpdateFrame{0, config_.connection_window_bonus}});
    recv_window_ += config_.connection_window_bonus;
  }
  signal_write();
}

void Connection::trace_send(std::string_view name, std::uint32_t stream,
                            std::int64_t bytes) {
  const std::string key(name);
  trace_->instant(trace_track_, "h2", "send " + key,
                  {{"stream", stream}, {"bytes", bytes}});
  ++trace_->summary().frames_sent[key];
}

void Connection::queue_control(const Frame& frame) {
  if (trace_) {
    const FrameTraceInfo info = frame_trace_info(frame);
    trace_send(info.name, info.stream, info.bytes);
  }
  // Grown geometrically here: serialize_into reserves the exact size.
  const std::size_t size = serialized_size(frame, peer_max_frame_size_);
  if (control_bytes_.capacity() - control_bytes_.size() < size) {
    control_bytes_.reserve(
        std::max(control_bytes_.size() + size, 2 * control_bytes_.capacity()));
  }
  serialize_into(frame, control_bytes_, peer_max_frame_size_);
  control_ends_.push_back(control_bytes_.size());
}

void Connection::queue_header_frame(std::uint32_t stream_id,
                                    const http::HeaderBlock& headers,
                                    bool end_stream,
                                    const std::optional<PrioritySpec>& priority,
                                    std::uint32_t promised_id) {
  encoder_.encode_into(headers, hpack_scratch_);
  if (promised_id != 0) {
    if (trace_) {
      trace_send(to_string(FrameType::kPushPromise), stream_id,
                 static_cast<std::int64_t>(hpack_scratch_.size() + 4));
    }
    append_push_promise_frame(control_bytes_, stream_id, promised_id,
                              hpack_scratch_, peer_max_frame_size_);
  } else {
    if (trace_) {
      trace_send(to_string(FrameType::kHeaders), stream_id,
                 static_cast<std::int64_t>(hpack_scratch_.size()));
    }
    append_headers_frame(control_bytes_, stream_id, end_stream, priority,
                         hpack_scratch_, peer_max_frame_size_);
  }
  control_ends_.push_back(control_bytes_.size());
}

void Connection::compact_control() {
  if (!control_pending()) {
    control_bytes_.clear();
    control_ends_.clear();
    control_chunk_ = 0;
    control_offset_ = 0;
    return;
  }
  // A queue that never drains (a stalled live peer) drops its emitted
  // prefix once that is at least half the buffer, so it stays bounded.
  if (control_offset_ < control_bytes_.size() / 2) return;
  control_bytes_.erase(
      control_bytes_.begin(),
      control_bytes_.begin() + static_cast<std::ptrdiff_t>(control_offset_));
  control_ends_.erase(
      control_ends_.begin(),
      control_ends_.begin() + static_cast<std::ptrdiff_t>(control_chunk_));
  for (std::size_t& end : control_ends_) end -= control_offset_;
  control_chunk_ = 0;
  control_offset_ = 0;
}

void Connection::signal_write() {
  if (callbacks_.on_write_ready) callbacks_.on_write_ready();
}

void Connection::connection_error(ErrorCode code, const std::string& message) {
  if (errored_) return;
  errored_ = true;
  last_error_ = message;
  last_error_code_ = code;
  queue_control(Frame{GoawayFrame{max_peer_stream_, code, message}});
  if (callbacks_.on_connection_error) callbacks_.on_connection_error(message);
  signal_write();
}

Connection::Stream& Connection::open_stream(std::uint32_t id) {
  Stream& s = streams_.at(streams_.insert(id));
  s.send_window = peer_initial_window_;
  s.recv_window = config_.initial_window;
  return s;
}

void Connection::retire(std::uint32_t id, const Stream& s) {
  if (s.body) --streams_with_body_;
  streams_.erase(id);
  scheduler_.on_stream_removed(id);
}

std::uint32_t Connection::submit_request(
    const http::HeaderBlock& headers, std::optional<PrioritySpec> priority) {
  assert(config_.role == Role::kClient);
  start();
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  open_stream(id).local_done = true;  // GET with END_STREAM
  queue_header_frame(id, headers, /*end_stream=*/true, priority);
  scheduler_.on_stream_added(id, priority.value_or(PrioritySpec{}));
  signal_write();
  return id;
}

void Connection::submit_priority(std::uint32_t stream,
                                 const PrioritySpec& spec) {
  queue_control(Frame{PriorityFrame{stream, spec}});
  signal_write();
}

void Connection::submit_extension(const ExtensionFrame& frame) {
  start();
  queue_control(Frame{frame});
  signal_write();
}

void Connection::submit_goaway(ErrorCode error, const std::string& debug_data) {
  if (errored_) return;
  start();
  queue_control(Frame{GoawayFrame{max_peer_stream_, error, debug_data}});
  signal_write();
}

void Connection::submit_rst(std::uint32_t stream, ErrorCode error) {
  if (const Stream* s = streams_.find(stream)) retire(stream, *s);
  queue_control(Frame{RstStreamFrame{stream, error}});
  signal_write();
}

std::uint32_t Connection::submit_push_promise(
    std::uint32_t parent, const http::HeaderBlock& request_headers) {
  assert(config_.role == Role::kServer);
  if (!peer_enable_push_) return 0;
  if (!streams_.contains(parent)) return 0;
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  open_stream(id).remote_done = true;  // the peer never sends on a push
  queue_header_frame(parent, request_headers, /*end_stream=*/false,
                     std::nullopt, /*promised_id=*/id);
  // h2o: pushed streams depend on the associated (parent) stream.
  scheduler_.on_stream_added(id, PrioritySpec{parent, 16, false});
  signal_write();
  return id;
}

void Connection::submit_response(std::uint32_t stream,
                                 const http::HeaderBlock& headers,
                                 Body body) {
  assert(config_.role == Role::kServer);
  Stream* found = streams_.find(stream);
  if (found == nullptr) return;  // e.g. the client reset the push
  Stream& s = *found;
  const bool empty_body = !body || body->empty();
  queue_header_frame(stream, headers, /*end_stream=*/empty_body,
                     std::nullopt);
  if (empty_body) {
    s.local_done = true;
    scheduler_.on_stream_finished(stream);
    maybe_close(stream);
  } else {
    if (!s.body) ++streams_with_body_;
    s.body = std::move(body);
    s.body_offset = 0;
  }
  signal_write();
}

bool Connection::data_ready(std::uint32_t id) const {
  const Stream* s = streams_.find(id);
  return s != nullptr && s->body && s->send_window > 0 && send_window_ > 0;
}

bool Connection::send_quiescent() const {
  return !control_pending() && streams_with_body_ == 0;
}

bool Connection::want_write() const {
  if (control_pending()) return true;
  // A client never has a body to send, and a server's live streams are
  // mostly the ones with a body left.
  if (send_window_ <= 0 || streams_with_body_ == 0) return false;
  return streams_.any_of([](std::uint32_t, const Stream& s) {
    return s.body && s.send_window > 0;
  });
}

std::vector<std::uint8_t> Connection::produce(std::size_t max_bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(max_bytes);
  produce_into(out, max_bytes, util::WriteCap::kSoft);
  return out;
}

std::size_t Connection::produce_into(util::WireOut& out,
                                     std::size_t max_bytes,
                                     util::WriteCap cap) {
  const bool hard = cap == util::WriteCap::kHard;
  std::vector<std::uint8_t>& owned = out.owned();
  const std::size_t start = out.size();
  const auto used = [&] { return out.size() - start; };
  // 1. Control frames (SETTINGS, HEADERS, PUSH_PROMISE, RST, WINDOW_UPDATE):
  //    not flow controlled, sent ahead of DATA like real stacks do. Under
  //    the hard cap a chunk is split at byte granularity and the next call
  //    resumes it at control_offset_; under the soft cap it goes out whole.
  while (control_pending() && used() < max_bytes) {
    const std::size_t end = control_ends_[control_chunk_];
    std::size_t take = end - control_offset_;
    if (hard) take = std::min(take, max_bytes - used());
    const auto begin =
        control_bytes_.begin() + static_cast<std::ptrdiff_t>(control_offset_);
    owned.insert(owned.end(), begin, begin + static_cast<std::ptrdiff_t>(take));
    control_offset_ += take;
    if (control_offset_ == end) ++control_chunk_;
  }
  compact_control();
  // 2. Scheduler-chosen DATA frames. Under the hard cap each frame is sized
  //    to the budget left, and a frame needs its 9-byte header plus one
  //    payload byte to be worth emitting: below that we stop and wait for
  //    the sink to drain.
  while (hard ? max_bytes - used() > kFrameHeaderSize : used() < max_bytes) {
    const std::uint32_t id =
        scheduler_.pick([this](std::uint32_t sid) { return data_ready(sid); });
    if (id == 0) break;
    if (trace_ && id != last_data_stream_) {
      // The scheduler moved to a different stream: the switch points are
      // what make interleaving visible in a trace (paper Fig. 5a).
      trace_->instant(trace_track_, "h2", "data.switch",
                      {{"from", last_data_stream_}, {"to", id}});
      last_data_stream_ = id;
    }
    Stream& s = *streams_.find(id);
    const std::size_t remaining = s.body->size() - s.body_offset;
    std::size_t n = std::min<std::size_t>(remaining, peer_max_frame_size_);
    n = std::min<std::size_t>(n, static_cast<std::size_t>(s.send_window));
    n = std::min<std::size_t>(n, static_cast<std::size_t>(send_window_));
    n = std::min<std::size_t>(n, scheduler_.max_bytes_for(id));
    if (hard) n = std::min(n, max_bytes - used() - kFrameHeaderSize);
    // data_ready() guarantees n > 0 for every setting this connection can
    // reach, but an unvalidated limit reaching 0 here would emit empty
    // DATA frames forever (the NDEBUG builds used to rely on a compiled-out
    // assert). Stall instead of spinning.
    assert(n > 0);
    if (n == 0) break;
    const bool end_stream = (n == remaining);
    const auto* base =
        reinterpret_cast<const std::uint8_t*>(s.body->data()) + s.body_offset;
    // Serialized straight into the output buffer, the payload by reference
    // where the sink keeps one: no DataFrame temp, no payload copy.
    append_data_frame(out, id, end_stream, {base, n}, s.body);
    s.body_offset += n;
    s.send_window -= static_cast<std::int64_t>(n);
    send_window_ -= static_cast<std::int64_t>(n);
    total_data_sent_ += n;
    scheduler_.on_data_sent(id, n);
    if (trace_) {
      trace_->instant(trace_track_, "h2", "send DATA",
                      {{"stream", id},
                       {"bytes", n},
                       {"end_stream", end_stream ? 1 : 0}});
      ++trace_->summary().frames_sent["DATA"];
      trace_->counter(trace_track_, "h2", "conn_send_window",
                      static_cast<double>(send_window_));
    }
    if (end_stream) {
      s.local_done = true;
      s.body.reset();
      --streams_with_body_;
      scheduler_.on_stream_finished(id);
      maybe_close(id);
    }
  }
  return used();
}

void Connection::maybe_close(std::uint32_t id) {
  const Stream* s = streams_.find(id);
  if (s == nullptr || !s->local_done || !s->remote_done) return;
  retire(id, *s);
  if (callbacks_.on_stream_closed) callbacks_.on_stream_closed(id);
}

void Connection::receive(util::WireBytes bytes) {
  if (errored_) return;
  // Receiving before start() (e.g. the peer's SETTINGS racing the transport
  // handshake) must not let an ACK jump ahead of our preface/SETTINGS.
  start();
  // The server must strip the 24-byte client preface first.
  if (preface_pending_) {
    preface_buf_.insert(preface_buf_.end(), bytes.bytes.begin(),
                        bytes.bytes.end());
    if (preface_buf_.size() < 24) return;
    const auto expected = client_preface();
    if (!std::equal(expected.begin(), expected.end(), preface_buf_.begin())) {
      preface_buf_.clear();
      connection_error(ErrorCode::kProtocolError, "bad client preface");
      return;
    }
    preface_pending_ = false;
    std::vector<std::uint8_t> rest(preface_buf_.begin() + 24,
                                   preface_buf_.end());
    preface_buf_.clear();
    if (!rest.empty()) receive(rest);
    return;
  }
  if (auto error = parser_.parse(bytes, *this)) {
    connection_error(error->code, error->message);
  }
}

void Connection::apply_remote_settings(const SettingsFrame& frame) {
  for (const auto& [id, value] : frame.settings) {
    switch (id) {
      case SettingsId::kHeaderTableSize:
        encoder_.set_table_size(value);
        break;
      case SettingsId::kEnablePush:
        if (value > 1) {
          connection_error(ErrorCode::kProtocolError,
                           "SETTINGS_ENABLE_PUSH not 0/1");
          return;
        }
        peer_enable_push_ = value != 0;
        break;
      case SettingsId::kInitialWindowSize: {
        if (value > kMaxWindow) {
          // §6.5.2: values above 2^31-1 are a FLOW_CONTROL_ERROR.
          connection_error(ErrorCode::kFlowControlError,
                           "SETTINGS_INITIAL_WINDOW_SIZE above 2^31-1");
          return;
        }
        // Adjust all open streams by the delta (RFC 7540 §6.9.2).
        const std::int64_t delta =
            static_cast<std::int64_t>(value) -
            static_cast<std::int64_t>(peer_initial_window_);
        peer_initial_window_ = value;
        streams_.for_each(
            [delta](std::uint32_t, Stream& s) { s.send_window += delta; });
        break;
      }
      case SettingsId::kMaxFrameSize:
        if (value < kDefaultMaxFrameSize || value > 0xffffff) {
          // §6.5.2: outside [2^14, 2^24-1] is a PROTOCOL_ERROR. Applying a
          // zero frame size used to drive produce() into an endless stream
          // of empty DATA frames (fuzz seed settings-max-frame-size-zero).
          connection_error(ErrorCode::kProtocolError,
                           "SETTINGS_MAX_FRAME_SIZE out of range");
          return;
        }
        peer_max_frame_size_ = value;
        break;
      case SettingsId::kMaxConcurrentStreams:
      case SettingsId::kMaxHeaderListSize:
        break;  // tracked but not enforced in simulation
    }
  }
  queue_control(Frame{SettingsFrame{.ack = true, .settings = {}}});
  if (callbacks_.on_remote_settings) callbacks_.on_remote_settings();
  signal_write();
}

void Connection::trace_receive(std::string_view name, std::uint32_t stream,
                               std::int64_t bytes) {
  const std::string key(name);
  trace_->instant(trace_track_, "h2", "recv " + key,
                  {{"stream", stream}, {"bytes", bytes}});
  ++trace_->summary().frames_received[key];
}

void Connection::on_data(const DataView& f) {
  if (errored_) return;  // the rest of a chunk after a connection error
  if (trace_) {
    trace_receive(to_string(FrameType::kData), f.stream_id,
                  static_cast<std::int64_t>(f.data.size()));
  }
  Stream* found = streams_.find(f.stream_id);
  if (found == nullptr && !opened(f.stream_id)) {
    connection_error(ErrorCode::kProtocolError, "DATA on idle stream");
    return;
  }
  // RFC 7540 §6.9: the whole frame payload, including padding, counts
  // against flow control — even for streams already closed or reset.
  const auto n = static_cast<std::int64_t>(f.data.size() + f.padding_bytes);
  recv_window_ -= n;
  if (recv_window_ < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "connection flow control violated by peer");
    return;
  }
  if (found == nullptr) {
    // A straggler on a closed stream: connection-level accounting only
    // (§5.1).
    recv_unacked_ += static_cast<std::uint64_t>(n);
    return;
  }
  Stream& s = *found;
  if (s.remote_done) {
    // §5.1 half-closed (remote): DATA is a STREAM_CLOSED error.
    submit_rst(f.stream_id, ErrorCode::kStreamClosed);
    return;
  }
  s.recv_window -= n;
  if (s.recv_window < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "stream flow control violated by peer");
    return;
  }
  // Application consumes immediately; replenish at half-window.
  s.recv_unacked += f.data.size() + f.padding_bytes;
  recv_unacked_ += f.data.size() + f.padding_bytes;
  if (!f.end_stream && s.recv_unacked > config_.initial_window / 2) {
    queue_control(Frame{WindowUpdateFrame{
        f.stream_id, static_cast<std::uint32_t>(s.recv_unacked)}});
    s.recv_window += static_cast<std::int64_t>(s.recv_unacked);
    s.recv_unacked = 0;
  }
  const std::uint64_t conn_threshold =
      (static_cast<std::uint64_t>(kDefaultInitialWindow) +
       config_.connection_window_bonus) / 2;
  if (recv_unacked_ > conn_threshold) {
    queue_control(Frame{WindowUpdateFrame{
        0, static_cast<std::uint32_t>(recv_unacked_)}});
    recv_window_ += static_cast<std::int64_t>(recv_unacked_);
    recv_unacked_ = 0;
  }
  if (f.end_stream) s.remote_done = true;
  if (callbacks_.on_data) {
    callbacks_.on_data(f.stream_id, f.data, f.end_stream);
  }
  maybe_close(f.stream_id);
  signal_write();
}

bool Connection::decode_header_block(std::span<const std::uint8_t> block) {
  if (const char* error = decoder_.decode_into(block, decoded_)) {
    connection_error(ErrorCode::kCompressionError,
                     std::string("hpack: ") + error);
    return false;
  }
  return true;
}

void Connection::on_header_block(const HeaderBlockView& f) {
  if (errored_) return;  // the rest of a chunk after a connection error
  if (f.type == FrameType::kPushPromise) {
    on_push_promise(f);
    return;
  }
  if (trace_) {
    trace_receive(to_string(FrameType::kHeaders), f.stream_id,
                  static_cast<std::int64_t>(f.block.size()));
  }
  // Decode before any stream-level checks: the dynamic table must stay
  // synchronized even for blocks on doomed streams (§4.3).
  if (!decode_header_block(f.block)) return;
  Stream* s = streams_.find(f.stream_id);
  if (s == nullptr) {
    if (config_.role == Role::kClient) {
      // Every response stream is one we opened or the peer promised. One
      // that has closed may still see HEADERS the peer sent before our
      // RST_STREAM reached it (§5.1): dropped, its block decoded above.
      if (!opened(f.stream_id)) {
        connection_error(ErrorCode::kProtocolError, "HEADERS on idle stream");
      }
      return;
    }
    if (f.stream_id % 2 == 0) {
      connection_error(ErrorCode::kProtocolError,
                       "client opened even stream");
      return;
    }
    if (f.stream_id <= max_peer_stream_) {
      connection_error(ErrorCode::kProtocolError,
                       "stream id not monotonically increasing");
      return;
    }
    max_peer_stream_ = f.stream_id;
    s = &open_stream(f.stream_id);
  }
  if (s->remote_done) {
    // §5.1 half-closed (remote): further HEADERS are a stream error of
    // type STREAM_CLOSED.
    submit_rst(f.stream_id, ErrorCode::kStreamClosed);
    return;
  }
  // The stream is open: a node it has in the tree stops being idle.
  if (f.priority) {
    scheduler_.on_stream_added(f.stream_id, *f.priority);
  } else if (config_.role == Role::kServer) {
    scheduler_.on_stream_added(f.stream_id, PrioritySpec{});
  }
  if (f.end_stream) s->remote_done = true;
  if (callbacks_.on_headers) {
    callbacks_.on_headers(f.stream_id, decoded_, f.end_stream);
  }
  maybe_close(f.stream_id);
}

void Connection::on_push_promise(const HeaderBlockView& f) {
  if (trace_) {
    trace_receive(to_string(FrameType::kPushPromise), f.stream_id,
                  static_cast<std::int64_t>(f.block.size() + 4));
  }
  if (config_.role != Role::kClient) {
    connection_error(ErrorCode::kProtocolError, "PUSH_PROMISE from client");
    return;
  }
  if (!config_.enable_push) {
    connection_error(ErrorCode::kProtocolError,
                     "push disabled but PUSH_PROMISE received");
    return;
  }
  if (!decode_header_block(f.block)) return;
  if (!opened(f.stream_id)) {
    connection_error(ErrorCode::kProtocolError,
                     "PUSH_PROMISE on idle stream");
    return;
  }
  if (f.promised_id == 0 || f.promised_id % 2 != 0 ||
      f.promised_id <= max_peer_stream_) {
    connection_error(ErrorCode::kProtocolError, "promised stream id invalid");
    return;
  }
  max_peer_stream_ = f.promised_id;
  open_stream(f.promised_id).local_done = true;  // we never send on a push
  if (callbacks_.on_push_promise) {
    callbacks_.on_push_promise(f.stream_id, f.promised_id, decoded_);
  }
}

void Connection::on_frame(Frame&& frame) {
  if (errored_) return;  // the rest of a chunk after a connection error
  if (trace_) {
    const FrameTraceInfo info = frame_trace_info(frame);
    trace_receive(info.name, info.stream, info.bytes);
  }
  std::visit(
      [this](auto&& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, SettingsFrame>) {
          if (!f.ack) apply_remote_settings(f);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          if (f.priority.depends_on == f.stream_id) {
            // §5.3.1: a stream cannot depend on itself — stream error.
            if (opened(f.stream_id)) {
              submit_rst(f.stream_id, ErrorCode::kProtocolError);
            }
            return;
          }
          scheduler_.on_reprioritized(f.stream_id, f.priority);
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          const Stream* s = streams_.find(f.stream_id);
          if (s == nullptr) {
            if (!opened(f.stream_id)) {
              connection_error(ErrorCode::kProtocolError,
                               "RST_STREAM on idle stream");
            }
            return;  // closed already: nothing left to reset
          }
          retire(f.stream_id, *s);
          if (callbacks_.on_rst) callbacks_.on_rst(f.stream_id, f.error);
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          if (f.stream_id == 0) {
            if (send_window_ + f.increment > kMaxWindow) {
              connection_error(ErrorCode::kFlowControlError,
                               "connection window overflow");
              return;
            }
            send_window_ += f.increment;
            if (trace_) {
              trace_->counter(trace_track_, "h2", "conn_send_window",
                              static_cast<double>(send_window_));
            }
          } else {
            if (Stream* s = streams_.find(f.stream_id)) {
              if (s->send_window + f.increment > kMaxWindow) {
                submit_rst(f.stream_id, ErrorCode::kFlowControlError);
                return;
              }
              s->send_window += f.increment;
            } else if (!opened(f.stream_id)) {
              connection_error(ErrorCode::kProtocolError,
                               "WINDOW_UPDATE on idle stream");
              return;
            }  // else closed: ignored
          }
          signal_write();
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          if (!f.ack) {
            queue_control(Frame{PingFrame{true, f.opaque}});
            signal_write();
          }
        } else if constexpr (std::is_same_v<T, ExtensionFrame>) {
          if (callbacks_.on_extension_frame) callbacks_.on_extension_frame(f);
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          // Remembered for diagnostics; page loads do not reuse dying
          // connections in our experiments.
          last_error_ = "GOAWAY: " + f.debug_data;
          last_error_code_ = f.error;
        }
      },
      frame);
}

std::optional<std::string> Connection::check_invariants() const {
  if (recv_window_ < 0) return "connection recv window negative";
  if (send_window_ > kMaxWindow) return "connection send window above 2^31-1";
  std::size_t with_body = 0;
  std::optional<std::string> violation;
  streams_.any_of([&](std::uint32_t id, const Stream& s) {
    const auto tag = [id] { return " (stream " + std::to_string(id) + ")"; };
    if (s.recv_window < 0) {
      violation = "stream recv window negative" + tag();
    } else if (s.send_window > kMaxWindow) {
      violation = "stream send window above 2^31-1" + tag();
    } else if (s.body && s.body_offset > s.body->size()) {
      violation = "body cursor past end of body" + tag();
    }
    if (s.body) ++with_body;
    return violation.has_value();
  });
  if (violation) return violation;
  if (with_body != streams_with_body_) {
    return "count of streams with a body out of step";
  }
  return std::nullopt;
}

}  // namespace h2push::h2
