// HTTP/1.1 endpoint pair (client + server roles), the baseline protocol the
// paper's introduction frames HTTP/2 against: one request at a time per
// connection (no multiplexing → application-layer head-of-line blocking),
// textual framing, repeated uncompressed headers, and browsers opening up
// to six parallel connections per origin to compensate.
//
// The H1 mode lets the testbed reproduce the classic SPDY/H2-vs-H1
// comparisons the paper cites ([15, 35, 37]) on the same sites, corpus and
// network model as the push experiments.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "util/pump.h"

namespace h2push::http1 {

/// Serialize a GET request (request line + headers + CRLF).
std::string serialize_request(const http::Request& request);

/// Serialize response head for a body of `body_size` bytes.
std::string serialize_response_head(const http::Response& response);

/// Incremental HTTP/1.1 message parser for one direction.
class MessageParser {
 public:
  enum class Kind { kRequest, kResponse };

  explicit MessageParser(Kind kind) : kind_(kind) {}

  struct Message {
    std::string method;       // requests
    std::string target;       // requests
    int status = 0;           // responses
    http::HeaderBlock headers;
    std::string body;
  };

  /// Feed bytes; complete messages come back in order. Responses require a
  /// content-length header (the testbed always sends one).
  std::vector<Message> feed(std::span<const std::uint8_t> bytes);

  bool in_error() const noexcept { return error_; }

 private:
  bool parse_head(Message& out, std::string_view head);

  Kind kind_;
  std::string buffer_;
  bool reading_body_ = false;
  std::size_t body_remaining_ = 0;
  Message pending_;
  bool error_ = false;
};

/// The write side both endpoints share: serialized messages queued for the
/// transport and drained from a read offset, so draining a response costs
/// O(size) however small the transport's chunks (an erase-from-front drain
/// is quadratic in the body size). The pump's source interface
/// (util/pump.h).
class Outbox {
 public:
  bool want_write() const noexcept { return read_ < queued_.size(); }
  /// Append up to `max_bytes` queued bytes to `out`; returns the count. A
  /// text stream cuts at any byte, so both cap policies are exact.
  std::size_t produce_into(std::vector<std::uint8_t>& out,
                           std::size_t max_bytes,
                           util::WriteCap = util::WriteCap::kHard);
  /// The same into a WireOut: every byte is owned (H1 bodies are queued
  /// as text).
  std::size_t produce_into(util::WireOut& out, std::size_t max_bytes,
                           util::WriteCap cap = util::WriteCap::kHard) {
    return produce_into(out.owned(), max_bytes, cap);
  }

 protected:
  void queue_bytes(std::string_view bytes) { queued_ += bytes; }

 private:
  std::string queued_;
  std::size_t read_ = 0;  // bytes of queued_ already produced
};

/// A client-side H1.1 connection: serial request/response over one stream
/// of bytes (keep-alive, no pipelining — matching 2018 browsers). Response
/// bodies stream to the caller as they arrive, so the renderer can parse
/// the HTML incrementally exactly as it does over H2.
class ClientConnection : public Outbox {
 public:
  struct Callbacks {
    std::function<void(const http::HeaderBlock&, int status)> on_headers;
    std::function<void(std::span<const std::uint8_t>, bool fin)> on_body_data;
    /// Bytes ready to be written to the transport.
    std::function<void()> on_write_ready;
  };

  explicit ClientConnection(Callbacks callbacks)
      : callbacks_(std::move(callbacks)) {}

  /// Queue a request; sent immediately if idle, otherwise after the
  /// in-flight exchange completes (serial connection).
  void submit_request(const http::Request& request);

  bool busy() const noexcept { return in_flight_; }
  std::size_t queued() const noexcept { return queue_.size(); }

  void receive(std::span<const std::uint8_t> bytes);

 private:
  void send_next();

  Callbacks callbacks_;
  std::deque<http::Request> queue_;
  bool in_flight_ = false;
  // Incremental response state.
  std::string inbox_;
  bool reading_body_ = false;
  std::size_t body_remaining_ = 0;
};

/// Server side: parses requests, application responds in order.
class ServerConnection : public Outbox {
 public:
  struct Callbacks {
    std::function<void(const MessageParser::Message&)> on_request;
    std::function<void()> on_write_ready;
  };

  explicit ServerConnection(Callbacks callbacks)
      : callbacks_(std::move(callbacks)), parser_(MessageParser::Kind::kRequest) {}

  void submit_response(const http::Response& head, const std::string& body);

  void receive(std::span<const std::uint8_t> bytes);

 private:
  Callbacks callbacks_;
  MessageParser parser_;
};

}  // namespace h2push::http1
