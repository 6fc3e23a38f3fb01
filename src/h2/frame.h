// HTTP/2 framing layer (RFC 7540 §4, §6).
//
// Typed frame structs, a serializer, and an incremental FrameParser that
// consumes a TCP byte stream and yields frames as they complete. All ten
// frame types are implemented; HEADERS/PUSH_PROMISE carry opaque HPACK
// blocks (CONTINUATION reassembly is handled by the parser so consumers
// always see complete header blocks). The parse loop hands DATA payloads on
// as views, so receiving DATA copies and allocates nothing per frame, and
// a DATA payload that arrives in borrowed pieces of a body (util/wire.h)
// stays a view into the body even when it spans chunks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/expected.h"
#include "util/wire.h"

namespace h2push::h2 {

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

std::string_view to_string(FrameType t);

// Flag bits (per-type meaning, RFC 7540 §6).
constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS, PING
constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, PUSH_PROMISE, CONT
constexpr std::uint8_t kFlagPadded = 0x8;
constexpr std::uint8_t kFlagPriority = 0x20;   // HEADERS

// Error codes (RFC 7540 §7).
enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

// Settings identifiers (RFC 7540 §6.5.2).
enum class SettingsId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

constexpr std::size_t kFrameHeaderSize = 9;  ///< §4.1 fixed frame header
constexpr std::uint32_t kDefaultInitialWindow = 65535;
constexpr std::uint32_t kDefaultMaxFrameSize = 16384;
constexpr std::uint32_t kMaxWindow = 0x7fffffff;

/// A framing-layer protocol violation. `code` is the RFC 7540 connection
/// error the receiver must surface in its GOAWAY (§5.4.1): length
/// violations map to FRAME_SIZE_ERROR, everything else to PROTOCOL_ERROR.
struct ParseError {
  ErrorCode code = ErrorCode::kProtocolError;
  std::string message;
};

/// Stream dependency info carried in HEADERS / PRIORITY frames.
struct PrioritySpec {
  std::uint32_t depends_on = 0;
  std::uint16_t weight = 16;  // effective weight 1..256 (wire value + 1)
  bool exclusive = false;
  bool operator==(const PrioritySpec&) const = default;
};

struct DataFrame {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::vector<std::uint8_t> data;
  /// Pad-Length octet + padding stripped by the parser (flow-control
  /// accounting needs the full payload size, RFC 7540 §6.9).
  std::size_t padding_bytes = 0;
  bool operator==(const DataFrame&) const = default;
};

struct HeadersFrame {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::optional<PrioritySpec> priority;
  std::vector<std::uint8_t> header_block;  // complete (post-CONTINUATION)
  bool operator==(const HeadersFrame&) const = default;
};

struct PriorityFrame {
  std::uint32_t stream_id = 0;
  PrioritySpec priority;
  bool operator==(const PriorityFrame&) const = default;
};

struct RstStreamFrame {
  std::uint32_t stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  bool operator==(const RstStreamFrame&) const = default;
};

struct SettingsFrame {
  bool ack = false;
  std::vector<std::pair<SettingsId, std::uint32_t>> settings;
  bool operator==(const SettingsFrame&) const = default;
};

struct PushPromiseFrame {
  std::uint32_t stream_id = 0;    // the stream the promise rides on
  std::uint32_t promised_id = 0;  // even, server-initiated
  std::vector<std::uint8_t> header_block;
  bool operator==(const PushPromiseFrame&) const = default;
};

struct PingFrame {
  bool ack = false;
  std::uint64_t opaque = 0;
  bool operator==(const PingFrame&) const = default;
};

struct GoawayFrame {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::string debug_data;
  bool operator==(const GoawayFrame&) const = default;
};

struct WindowUpdateFrame {
  std::uint32_t stream_id = 0;  // 0 = connection
  std::uint32_t increment = 0;
  bool operator==(const WindowUpdateFrame&) const = default;
};

/// A DATA frame as FrameParser::parse hands it on. `data` views the bytes
/// being parsed — the caller's chunk, the body that a split frame's
/// borrowed pieces came from, or the parser's buffer for any other frame
/// that spanned chunks — and is valid only during the handler call.
struct DataView {
  std::uint32_t stream_id = 0;
  bool end_stream = false;
  std::span<const std::uint8_t> data;
  std::size_t padding_bytes = 0;  ///< as DataFrame::padding_bytes
};

/// A complete header block as FrameParser::parse hands it on: a HEADERS or
/// PUSH_PROMISE frame with its CONTINUATIONs folded in. `block` views the
/// frame, or the parser's reassembly buffer after CONTINUATIONs, and is
/// valid only during the handler call.
struct HeaderBlockView {
  FrameType type = FrameType::kHeaders;  ///< kHeaders or kPushPromise
  std::uint32_t stream_id = 0;
  bool end_stream = false;               ///< HEADERS only
  std::optional<PrioritySpec> priority;  ///< HEADERS only
  std::uint32_t promised_id = 0;         ///< PUSH_PROMISE only
  std::span<const std::uint8_t> block;
};

/// Frames of types outside RFC 7540 (e.g. CACHE_DIGEST, 0xd). RFC 7540 §4.1
/// requires implementations to ignore unknown types; we surface them so
/// extensions can hook in, and drop them at the Connection if unhandled.
struct ExtensionFrame {
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  std::vector<std::uint8_t> payload;
  bool operator==(const ExtensionFrame&) const = default;
};

using Frame = std::variant<DataFrame, HeadersFrame, PriorityFrame,
                           RstStreamFrame, SettingsFrame, PushPromiseFrame,
                           PingFrame, GoawayFrame, WindowUpdateFrame,
                           ExtensionFrame>;

/// Exact wire size of `frame` (header + payload + any CONTINUATIONs).
std::size_t serialized_size(const Frame& frame,
                            std::uint32_t max_frame_size =
                                kDefaultMaxFrameSize);

/// Append the serialization of `frame` to `out`, splitting header blocks
/// into HEADERS/PUSH_PROMISE + CONTINUATION when they exceed
/// `max_frame_size`. DATA frames must already respect max_frame_size (the
/// connection chunks them). Reserves the exact wire size up front and
/// writes with bulk copies, so a caller reusing `out` pays no per-byte
/// work and no allocation once the buffer is warm.
void serialize_into(const Frame& frame, std::vector<std::uint8_t>& out,
                    std::uint32_t max_frame_size = kDefaultMaxFrameSize);

/// Serialize any frame into a fresh buffer (exact-size allocation).
std::vector<std::uint8_t> serialize(const Frame& frame,
                                    std::uint32_t max_frame_size =
                                        kDefaultMaxFrameSize);

// Allocation-free appenders for the connection's hot send paths: they
// build the frame directly in the caller's buffer, skipping the Frame
// variant and its owned payload vectors entirely.

/// Append one DATA frame carrying `payload` (must fit max_frame_size).
void append_data_frame(std::vector<std::uint8_t>& out,
                       std::uint32_t stream_id, bool end_stream,
                       std::span<const std::uint8_t> payload);
/// The same with a payload that lies in an immutable body `pin` keeps
/// alive: the 9-byte header is appended as owned bytes, the payload
/// through out.append_borrowed() (a reference where the sink keeps one).
void append_data_frame(util::WireOut& out, std::uint32_t stream_id,
                       bool end_stream, std::span<const std::uint8_t> payload,
                       util::Pin pin);

/// Append a HEADERS frame (+ CONTINUATIONs) carrying an encoded block.
void append_headers_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t stream_id, bool end_stream,
                          const std::optional<PrioritySpec>& priority,
                          std::span<const std::uint8_t> header_block,
                          std::uint32_t max_frame_size = kDefaultMaxFrameSize);

/// Append a PUSH_PROMISE frame (+ CONTINUATIONs) carrying an encoded block.
void append_push_promise_frame(std::vector<std::uint8_t>& out,
                               std::uint32_t stream_id,
                               std::uint32_t promised_id,
                               std::span<const std::uint8_t> header_block,
                               std::uint32_t max_frame_size =
                                   kDefaultMaxFrameSize);

/// Receives the frames FrameParser::parse completes, in wire order.
class FrameHandler {
 public:
  virtual void on_data(const DataView& frame) = 0;
  virtual void on_header_block(const HeaderBlockView& frame) = 0;
  /// Every other frame type, owning.
  virtual void on_frame(Frame&& frame) = 0;

 protected:
  ~FrameHandler() = default;
};

/// Incremental parser over the connection byte stream. The caller feeds
/// arbitrary chunks; complete frames come back in order. The client
/// connection preface must be consumed by the caller before feeding.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_size = kDefaultMaxFrameSize)
      : max_frame_size_(max_frame_size) {}

  /// The parse loop: hand each frame `bytes` completes to `handler`, in
  /// order, DATA and header blocks by view, each when its last byte
  /// arrives. A frame wholly inside `bytes` is parsed where it lies. Of a
  /// frame that spans chunks, the header and owned payload bytes are
  /// copied, once, into the parser; a payload that arrives in borrowed
  /// pieces, each continuing the last in the same body, is kept as a view
  /// (with the body's pin) and never copied. A header block continued in
  /// CONTINUATIONs is copied too.
  /// Returns the connection error that stopped parsing, if any (frames
  /// before it were handled; the stream is poisoned afterwards). The
  /// handler must not feed this parser.
  std::optional<ParseError> parse(util::WireBytes bytes,
                                  FrameHandler& handler);
  /// parse() over owned bytes.
  std::optional<ParseError> parse(std::span<const std::uint8_t> bytes,
                                  FrameHandler& handler) {
    return parse(util::WireBytes{bytes}, handler);
  }

  /// Bytes parse() has copied into the parser so far to reassemble frames
  /// and header blocks that spanned chunks.
  std::uint64_t copied_bytes() const noexcept { return copied_; }

  /// parse() collecting owning frames (views copied out), for tests and
  /// fuzzers: the frames completed by this chunk, or the connection error
  /// (the stream is poisoned afterwards).
  util::Expected<std::vector<Frame>, ParseError> feed(
      std::span<const std::uint8_t> bytes);

 private:
  /// Cap on a reassembled (post-CONTINUATION) header block. An adversarial
  /// peer can otherwise grow the pending block without bound — the
  /// SETTINGS_MAX_HEADER_LIST_SIZE limit is advisory, this one is not.
  static constexpr std::size_t kMaxHeaderBlock = 1 << 20;

  /// Parse one complete frame and hand it on.
  std::optional<ParseError> dispatch(std::span<const std::uint8_t> header,
                                     std::span<const std::uint8_t> payload,
                                     FrameHandler& handler);
  /// Add the bytes of `chunk` from `pos` on that belong to the frame begun
  /// in buffer_ (or begin one); returns where they end.
  std::size_t gather(util::WireBytes chunk, std::size_t pos);
  void copy_in(std::span<const std::uint8_t> bytes);
  /// Hand on a HEADERS/PUSH_PROMISE block, or hold it for CONTINUATIONs.
  void begin_header_block(const HeaderBlockView& frame, std::uint8_t flags,
                          FrameHandler& handler);

  /// Record and return a connection error: parse() repeats it from now on.
  std::optional<ParseError> poison(ParseError error);

  // A frame begun in an earlier chunk: its header and copied payload, or
  // its header alone while the payload so far is view_, borrowed pieces
  // of one body that view_pin_ keeps alive.
  std::vector<std::uint8_t> buffer_;
  std::span<const std::uint8_t> view_;
  util::Pin view_pin_;
  std::uint64_t copied_ = 0;
  std::optional<ParseError> error_;   // set once the stream is poisoned
  std::uint32_t max_frame_size_;
  // CONTINUATION reassembly state: the frame the block began in, and the
  // block so far.
  bool expecting_continuation_ = false;
  HeaderBlockView pending_;
  std::vector<std::uint8_t> pending_block_;
};

/// The 24-byte client connection preface (RFC 7540 §3.5).
std::span<const std::uint8_t> client_preface();

}  // namespace h2push::h2
