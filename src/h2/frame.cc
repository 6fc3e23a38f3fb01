#include "h2/frame.h"

#include <algorithm>
#include <cstring>

namespace h2push::h2 {
namespace {

// Serialization writes through raw pointers into a region grown once per
// frame: reserve-and-write instead of push_back per byte.

std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t pos = out.size();
  out.resize(pos + n);
  return out.data() + pos;
}

std::uint8_t* put_u16(std::uint8_t* p, std::uint16_t v) {
  *p++ = static_cast<std::uint8_t>(v >> 8);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  *p++ = static_cast<std::uint8_t>(v >> 24);
  *p++ = static_cast<std::uint8_t>(v >> 16);
  *p++ = static_cast<std::uint8_t>(v >> 8);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t pos) {
  return (static_cast<std::uint32_t>(in[pos]) << 24) |
         (static_cast<std::uint32_t>(in[pos + 1]) << 16) |
         (static_cast<std::uint32_t>(in[pos + 2]) << 8) |
         static_cast<std::uint32_t>(in[pos + 3]);
}

std::uint8_t* put_frame_header(std::uint8_t* p, std::size_t length,
                               FrameType type, std::uint8_t flags,
                               std::uint32_t stream_id) {
  *p++ = static_cast<std::uint8_t>(length >> 16);
  *p++ = static_cast<std::uint8_t>(length >> 8);
  *p++ = static_cast<std::uint8_t>(length);
  *p++ = static_cast<std::uint8_t>(type);
  *p++ = flags;
  return put_u32(p, stream_id & 0x7fffffff);
}

std::uint8_t* put_bytes(std::uint8_t* p, const std::uint8_t* src,
                        std::size_t n) {
  if (n > 0) std::memcpy(p, src, n);
  return p + n;
}

std::uint8_t* put_priority(std::uint8_t* p, const PrioritySpec& prio) {
  p = put_u32(p, (prio.exclusive ? 0x80000000u : 0u) |
                     (prio.depends_on & 0x7fffffff));
  *p++ = static_cast<std::uint8_t>((prio.weight == 0 ? 16 : prio.weight) - 1);
  return p;
}

constexpr std::size_t kFrameHeader = 9;

ParseError parse_error(ErrorCode code, std::string message) {
  return ParseError{code, std::move(message)};
}

std::size_t frame_length(const std::uint8_t* header) {
  return (static_cast<std::size_t>(header[0]) << 16) |
         (static_cast<std::size_t>(header[1]) << 8) | header[2];
}

/// parse()'s handler for feed(): owning frames, DATA payloads copied out.
class CollectingHandler final : public FrameHandler {
 public:
  void on_data(const DataView& frame) override {
    frames.emplace_back(DataFrame{
        frame.stream_id, frame.end_stream,
        std::vector<std::uint8_t>(frame.data.begin(), frame.data.end()),
        frame.padding_bytes});
  }
  void on_header_block(const HeaderBlockView& frame) override {
    std::vector<std::uint8_t> block(frame.block.begin(), frame.block.end());
    if (frame.type == FrameType::kPushPromise) {
      frames.emplace_back(PushPromiseFrame{frame.stream_id, frame.promised_id,
                                           std::move(block)});
    } else {
      frames.emplace_back(HeadersFrame{frame.stream_id, frame.end_stream,
                                       frame.priority, std::move(block)});
    }
  }
  void on_frame(Frame&& frame) override { frames.push_back(std::move(frame)); }

  std::vector<Frame> frames;
};

/// Wire size of a HEADERS/PUSH_PROMISE carrying `block` bytes whose first
/// frame has `first_cap` payload capacity, plus CONTINUATION overhead.
std::size_t header_block_wire_size(std::size_t block, std::size_t first_cap,
                                   std::uint32_t max_frame_size) {
  if (block <= first_cap) return kFrameHeader + block;
  std::size_t size = kFrameHeader + first_cap;
  std::size_t remaining = block - first_cap;
  while (remaining > 0) {
    const std::size_t n = std::min<std::size_t>(max_frame_size, remaining);
    size += kFrameHeader + n;
    remaining -= n;
  }
  return size;
}

PrioritySpec get_priority(std::span<const std::uint8_t> in, std::size_t pos) {
  PrioritySpec p;
  const std::uint32_t dep = get_u32(in, pos);
  p.exclusive = (dep & 0x80000000u) != 0;
  p.depends_on = dep & 0x7fffffff;
  p.weight = static_cast<std::uint16_t>(in[pos + 4] + 1);  // wire value + 1
  return p;
}

}  // namespace

std::string_view to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoaway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
  }
  return "UNKNOWN";
}

std::span<const std::uint8_t> client_preface() {
  static const std::uint8_t kPreface[] =
      "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";
  return {kPreface, 24};
}

std::size_t serialized_size(const Frame& frame,
                            std::uint32_t max_frame_size) {
  return std::visit(
      [&](const auto& f) -> std::size_t {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          return kFrameHeader + f.data.size();
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          const std::size_t prio_len = f.priority ? 5 : 0;
          return prio_len + header_block_wire_size(f.header_block.size(),
                                                   max_frame_size - prio_len,
                                                   max_frame_size);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          return kFrameHeader + 5;
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          return kFrameHeader + 4;
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          return kFrameHeader + (f.ack ? 0 : f.settings.size() * 6);
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          return 4 + header_block_wire_size(f.header_block.size(),
                                            max_frame_size - 4,
                                            max_frame_size);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          return kFrameHeader + 8;
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          return kFrameHeader + 8 + f.debug_data.size();
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          return kFrameHeader + 4;
        } else {
          static_assert(std::is_same_v<T, ExtensionFrame>);
          return kFrameHeader + f.payload.size();
        }
      },
      frame);
}

void append_data_frame(std::vector<std::uint8_t>& out,
                       std::uint32_t stream_id, bool end_stream,
                       std::span<const std::uint8_t> payload) {
  // The payload is appended, not written into a grow()n region: resize
  // would zero-fill every payload byte before the copy overwrote it.
  put_frame_header(grow(out, kFrameHeader), payload.size(), FrameType::kData,
                   end_stream ? kFlagEndStream : 0, stream_id);
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_data_frame(util::WireOut& out, std::uint32_t stream_id,
                       bool end_stream, std::span<const std::uint8_t> payload,
                       util::Pin pin) {
  put_frame_header(grow(out.owned(), kFrameHeader), payload.size(),
                   FrameType::kData, end_stream ? kFlagEndStream : 0,
                   stream_id);
  out.append_borrowed(payload, std::move(pin));
}

void append_headers_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t stream_id, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::span<const std::uint8_t> header_block,
                          std::uint32_t max_frame_size) {
  const std::size_t prio_len = priority ? 5 : 0;
  const std::size_t first_cap = max_frame_size - prio_len;
  const bool fits = header_block.size() <= first_cap;
  const std::size_t first_len = fits ? header_block.size() : first_cap;
  std::uint8_t flags = 0;
  if (end_stream) flags |= kFlagEndStream;
  if (priority) flags |= kFlagPriority;
  if (fits) flags |= kFlagEndHeaders;
  std::uint8_t* p =
      grow(out, prio_len + header_block_wire_size(header_block.size(),
                                                  first_cap, max_frame_size));
  p = put_frame_header(p, first_len + prio_len, FrameType::kHeaders, flags,
                       stream_id);
  if (priority) p = put_priority(p, *priority);
  p = put_bytes(p, header_block.data(), first_len);
  // CONTINUATION frames for the remainder.
  std::size_t pos = first_len;
  while (pos < header_block.size()) {
    const std::size_t n =
        std::min<std::size_t>(max_frame_size, header_block.size() - pos);
    const bool last = pos + n == header_block.size();
    p = put_frame_header(p, n, FrameType::kContinuation,
                         last ? kFlagEndHeaders : 0, stream_id);
    p = put_bytes(p, header_block.data() + pos, n);
    pos += n;
  }
}

void append_push_promise_frame(std::vector<std::uint8_t>& out,
                               std::uint32_t stream_id,
                               std::uint32_t promised_id,
                               std::span<const std::uint8_t> header_block,
                               std::uint32_t max_frame_size) {
  const std::size_t first_cap = max_frame_size - 4;
  const bool fits = header_block.size() <= first_cap;
  const std::size_t first_len = fits ? header_block.size() : first_cap;
  std::uint8_t* p =
      grow(out, 4 + header_block_wire_size(header_block.size(), first_cap,
                                           max_frame_size));
  p = put_frame_header(p, first_len + 4, FrameType::kPushPromise,
                       fits ? kFlagEndHeaders : 0, stream_id);
  p = put_u32(p, promised_id & 0x7fffffff);
  p = put_bytes(p, header_block.data(), first_len);
  std::size_t pos = first_len;
  while (pos < header_block.size()) {
    const std::size_t n =
        std::min<std::size_t>(max_frame_size, header_block.size() - pos);
    const bool last = pos + n == header_block.size();
    p = put_frame_header(p, n, FrameType::kContinuation,
                         last ? kFlagEndHeaders : 0, stream_id);
    p = put_bytes(p, header_block.data() + pos, n);
    pos += n;
  }
}

void serialize_into(const Frame& frame, std::vector<std::uint8_t>& out,
                    std::uint32_t max_frame_size) {
  out.reserve(out.size() + serialized_size(frame, max_frame_size));
  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          append_data_frame(out, f.stream_id, f.end_stream, f.data);
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          append_headers_frame(out, f.stream_id, f.end_stream, f.priority,
                               f.header_block, max_frame_size);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + 5);
          p = put_frame_header(p, 5, FrameType::kPriority, 0, f.stream_id);
          put_priority(p, f.priority);
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + 4);
          p = put_frame_header(p, 4, FrameType::kRstStream, 0, f.stream_id);
          put_u32(p, static_cast<std::uint32_t>(f.error));
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          const std::size_t len = f.ack ? 0 : f.settings.size() * 6;
          std::uint8_t* p = grow(out, kFrameHeader + len);
          p = put_frame_header(p, len, FrameType::kSettings,
                               f.ack ? kFlagAck : 0, 0);
          if (!f.ack) {
            for (const auto& [id, value] : f.settings) {
              p = put_u16(p, static_cast<std::uint16_t>(id));
              p = put_u32(p, value);
            }
          }
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          append_push_promise_frame(out, f.stream_id, f.promised_id,
                                    f.header_block, max_frame_size);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + 8);
          p = put_frame_header(p, 8, FrameType::kPing, f.ack ? kFlagAck : 0,
                               0);
          for (int i = 7; i >= 0; --i) {
            *p++ = static_cast<std::uint8_t>(f.opaque >> (8 * i));
          }
        } else if constexpr (std::is_same_v<T, GoawayFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + 8 + f.debug_data.size());
          p = put_frame_header(p, 8 + f.debug_data.size(), FrameType::kGoaway,
                               0, 0);
          p = put_u32(p, f.last_stream_id & 0x7fffffff);
          p = put_u32(p, static_cast<std::uint32_t>(f.error));
          put_bytes(p, reinterpret_cast<const std::uint8_t*>(
                           f.debug_data.data()),
                    f.debug_data.size());
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + 4);
          p = put_frame_header(p, 4, FrameType::kWindowUpdate, 0,
                               f.stream_id);
          put_u32(p, f.increment & 0x7fffffff);
        } else if constexpr (std::is_same_v<T, ExtensionFrame>) {
          std::uint8_t* p = grow(out, kFrameHeader + f.payload.size());
          p = put_frame_header(p, f.payload.size(),
                               static_cast<FrameType>(f.type), f.flags,
                               f.stream_id);
          put_bytes(p, f.payload.data(), f.payload.size());
        }
      },
      frame);
}

std::vector<std::uint8_t> serialize(const Frame& frame,
                                    std::uint32_t max_frame_size) {
  std::vector<std::uint8_t> out;
  serialize_into(frame, out, max_frame_size);
  return out;
}

std::optional<ParseError> FrameParser::dispatch(
    std::span<const std::uint8_t> header,
    std::span<const std::uint8_t> payload, FrameHandler& handler) {
  const std::uint8_t type = header[3];
  const std::uint8_t flags = header[4];
  const std::uint32_t stream_id = get_u32(header, 5) & 0x7fffffff;
  const auto ft = static_cast<FrameType>(type);
  const auto handle = [&handler](Frame&& f) -> std::optional<ParseError> {
    handler.on_frame(std::move(f));
    return std::nullopt;
  };

  // §6.10: once a HEADERS/PUSH_PROMISE without END_HEADERS is on the wire,
  // only CONTINUATION frames for that stream may follow.
  if (expecting_continuation_ && ft != FrameType::kContinuation) {
    return parse_error(ErrorCode::kProtocolError, "expected CONTINUATION");
  }

  switch (ft) {
    case FrameType::kData: {
      if (stream_id == 0) return parse_error(ErrorCode::kProtocolError, "DATA on stream 0");
      DataView f;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "DATA: bad pad");
        }
        pad = payload[0];
        pos = 1;
        if (pad + pos > payload.size()) {
          return parse_error(ErrorCode::kProtocolError, "DATA: pad beyond frame");
        }
      }
      f.data = payload.subspan(pos, payload.size() - pos - pad);
      f.padding_bytes = pos + pad;  // Pad-Length octet + padding
      handler.on_data(f);
      return std::nullopt;
    }
    case FrameType::kHeaders: {
      if (stream_id == 0) return parse_error(ErrorCode::kProtocolError, "HEADERS on stream 0");
      HeaderBlockView f;
      f.type = FrameType::kHeaders;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "HEADERS: bad pad");
        }
        pad = payload[0];
        pos = 1;
      }
      if (flags & kFlagPriority) {
        if (pos + 5 > payload.size()) {
          return parse_error(ErrorCode::kFrameSizeError,
                             "HEADERS: truncated priority");
        }
        f.priority = get_priority(payload, pos);
        pos += 5;
      }
      if (pad + pos > payload.size()) {
        return parse_error(ErrorCode::kProtocolError, "HEADERS: pad beyond frame");
      }
      f.block = payload.subspan(pos, payload.size() - pos - pad);
      begin_header_block(f, flags, handler);
      return std::nullopt;
    }
    case FrameType::kPriority: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "PRIORITY on stream 0");
      }
      if (payload.size() != 5) {
        return parse_error(ErrorCode::kFrameSizeError, "PRIORITY: bad length");
      }
      PriorityFrame f;
      f.stream_id = stream_id;
      f.priority = get_priority(payload, 0);
      return handle(std::move(f));
    }
    case FrameType::kRstStream: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "RST_STREAM on stream 0");
      }
      if (payload.size() != 4) {
        return parse_error(ErrorCode::kFrameSizeError, "RST_STREAM: bad length");
      }
      RstStreamFrame f;
      f.stream_id = stream_id;
      f.error = static_cast<ErrorCode>(get_u32(payload, 0));
      return handle(std::move(f));
    }
    case FrameType::kSettings: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "SETTINGS on a stream");
      }
      SettingsFrame f;
      f.ack = flags & kFlagAck;
      if (f.ack && !payload.empty()) {
        return parse_error(ErrorCode::kFrameSizeError,
                           "SETTINGS ack with payload");
      }
      if (payload.size() % 6 != 0) {
        return parse_error(ErrorCode::kFrameSizeError, "SETTINGS: bad length");
      }
      for (std::size_t i = 0; i + 6 <= payload.size(); i += 6) {
        const auto id = static_cast<SettingsId>(
            (static_cast<std::uint16_t>(payload[i]) << 8) | payload[i + 1]);
        f.settings.emplace_back(id, get_u32(payload, i + 2));
      }
      return handle(std::move(f));
    }
    case FrameType::kPushPromise: {
      if (stream_id == 0) {
        return parse_error(ErrorCode::kProtocolError, "PUSH_PROMISE on stream 0");
      }
      HeaderBlockView f;
      f.type = FrameType::kPushPromise;
      f.stream_id = stream_id;
      std::size_t pos = 0;
      std::size_t pad = 0;
      if (flags & kFlagPadded) {
        if (payload.empty()) {
          return parse_error(ErrorCode::kFrameSizeError, "PUSH_PROMISE: bad pad");
        }
        pad = payload[0];
        pos = 1;
      }
      if (pos + 4 + pad > payload.size()) {
        return parse_error(ErrorCode::kFrameSizeError, "PUSH_PROMISE: truncated");
      }
      f.promised_id = get_u32(payload, pos) & 0x7fffffff;
      f.block = payload.subspan(pos + 4, payload.size() - pos - 4 - pad);
      begin_header_block(f, flags, handler);
      return std::nullopt;
    }
    case FrameType::kPing: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "PING on a stream");
      }
      if (payload.size() != 8) {
        return parse_error(ErrorCode::kFrameSizeError, "PING: length");
      }
      PingFrame f;
      f.ack = flags & kFlagAck;
      f.opaque = 0;
      for (int i = 0; i < 8; ++i) f.opaque = (f.opaque << 8) | payload[i];
      return handle(std::move(f));
    }
    case FrameType::kGoaway: {
      if (stream_id != 0) {
        return parse_error(ErrorCode::kProtocolError, "GOAWAY on a stream");
      }
      if (payload.size() < 8) {
        return parse_error(ErrorCode::kFrameSizeError, "GOAWAY: length");
      }
      GoawayFrame f;
      f.last_stream_id = get_u32(payload, 0) & 0x7fffffff;
      f.error = static_cast<ErrorCode>(get_u32(payload, 4));
      f.debug_data.assign(payload.begin() + 8, payload.end());
      return handle(std::move(f));
    }
    case FrameType::kWindowUpdate: {
      if (payload.size() != 4) {
        return parse_error(ErrorCode::kFrameSizeError, "WINDOW_UPDATE: length");
      }
      WindowUpdateFrame f;
      f.stream_id = stream_id;
      f.increment = get_u32(payload, 0) & 0x7fffffff;
      if (f.increment == 0) {
        return parse_error(ErrorCode::kProtocolError,
                           "WINDOW_UPDATE: zero increment");
      }
      return handle(std::move(f));
    }
    case FrameType::kContinuation: {
      if (!expecting_continuation_) {
        return parse_error(ErrorCode::kProtocolError, "unexpected CONTINUATION");
      }
      if (stream_id != pending_.stream_id) {
        return parse_error(ErrorCode::kProtocolError, "CONTINUATION: wrong stream");
      }
      if (pending_block_.size() + payload.size() > max_header_block_) {
        return parse_error(ErrorCode::kEnhanceYourCalm,
                           "header block exceeds reassembly cap");
      }
      pending_block_.insert(pending_block_.end(), payload.begin(),
                            payload.end());
      copied_ += payload.size();
      if (flags & kFlagEndHeaders) {
        expecting_continuation_ = false;
        pending_.block = pending_block_;
        handler.on_header_block(pending_);
      }
      return std::nullopt;
    }
  }
  // Unknown frame types are surfaced as extension frames; a connection
  // without a handler ignores them (RFC 7540 §4.1).
  ExtensionFrame f;
  f.type = type;
  f.flags = flags;
  f.stream_id = stream_id;
  f.payload.assign(payload.begin(), payload.end());
  return handle(std::move(f));
}

void FrameParser::begin_header_block(const HeaderBlockView& frame,
                                     std::uint8_t flags,
                                     FrameHandler& handler) {
  if (flags & kFlagEndHeaders) {
    handler.on_header_block(frame);
    return;
  }
  pending_ = frame;
  pending_block_.assign(frame.block.begin(), frame.block.end());
  copied_ += frame.block.size();
  expecting_continuation_ = true;
}

std::optional<ParseError> FrameParser::poison(ParseError error) {
  error_ = std::move(error);
  return error_;
}

void FrameParser::copy_in(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  copied_ += bytes.size();
}

std::size_t FrameParser::gather(util::WireBytes chunk, std::size_t pos) {
  const std::span<const std::uint8_t> bytes = chunk.bytes;
  if (buffer_.size() < kFrameHeader) {
    const std::size_t n =
        std::min(kFrameHeader - buffer_.size(), bytes.size() - pos);
    copy_in(bytes.subspan(pos, n));
    pos += n;
    if (buffer_.size() < kFrameHeader) return pos;
  }
  const std::size_t have = buffer_.size() - kFrameHeader + view_.size();
  const std::size_t n =
      std::min(frame_length(buffer_.data()) - have, bytes.size() - pos);
  const auto piece = bytes.subspan(pos, n);
  if (n > 0 && chunk.borrowed() && buffer_.size() == kFrameHeader &&
      (view_.empty() || view_.data() + view_.size() == piece.data())) {
    // The payload so far is all borrowed and contiguous: extend the view.
    if (view_.empty()) {
      view_pin_ = *chunk.pin;
      view_ = piece;
    } else {
      view_ = {view_.data(), view_.size() + n};
    }
  } else if (n > 0) {
    if (!view_.empty()) {
      copy_in(view_);
      view_ = {};
      view_pin_.reset();
    }
    copy_in(piece);
  }
  return pos + n;
}

std::optional<ParseError> FrameParser::parse(util::WireBytes chunk,
                                             FrameHandler& handler) {
  if (error_) return error_;
  const std::span<const std::uint8_t> bytes = chunk.bytes;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (buffer_.empty()) {
      // A frame wholly inside the chunk is parsed where it lies.
      const std::size_t left = bytes.size() - pos;
      if (left >= kFrameHeader) {
        const std::size_t length = frame_length(bytes.data() + pos);
        if (length > max_frame_size_) {
          return poison(parse_error(ErrorCode::kFrameSizeError,
                                    "frame exceeds max frame size"));
        }
        if (left >= kFrameHeader + length) {
          if (auto error = dispatch(bytes.subspan(pos, kFrameHeader),
                                    bytes.subspan(pos + kFrameHeader, length),
                                    handler)) {
            return poison(std::move(*error));
          }
          pos += kFrameHeader + length;
          continue;
        }
      }
    }
    // The rest of the chunk, or of the frame an earlier chunk began.
    pos = gather(chunk, pos);
    if (buffer_.size() < kFrameHeader) break;  // the chunk ended first
    const std::size_t length = frame_length(buffer_.data());
    if (length > max_frame_size_) {
      return poison(parse_error(ErrorCode::kFrameSizeError,
                                "frame exceeds max frame size"));
    }
    const std::size_t have = buffer_.size() - kFrameHeader + view_.size();
    if (have < length) break;  // a later chunk ends it
    const std::span<const std::uint8_t> buffered(buffer_);
    auto error = dispatch(buffered.first(kFrameHeader),
                          view_.empty() ? buffered.subspan(kFrameHeader)
                                        : view_,
                          handler);
    buffer_.clear();
    view_ = {};
    view_pin_.reset();
    if (error) return poison(std::move(*error));
  }
  return std::nullopt;
}

util::Expected<std::vector<Frame>, ParseError> FrameParser::feed(
    std::span<const std::uint8_t> bytes) {
  CollectingHandler collect;
  if (auto error = parse(bytes, collect)) {
    return util::make_unexpected(std::move(*error));
  }
  return std::move(collect.frames);
}

}  // namespace h2push::h2
