#include "fuzz/harness.h"

#include <algorithm>
#include <memory>

#include "h2/connection.h"
#include "http/message.h"

namespace h2push::fuzz {

PeerHarnessResult run_server_harness(Random& r,
                                     std::span<const std::uint8_t> input,
                                     const HarnessOptions& opts) {
  PeerHarnessResult result;

  h2::Connection::Config config;
  config.role = h2::Role::kServer;

  const auto body = std::make_shared<const std::string>(
      std::string(opts.response_body, 'x'));

  h2::Connection* conn_ptr = nullptr;
  std::vector<std::uint32_t> to_answer;
  h2::Connection::Callbacks callbacks;
  callbacks.on_headers = [&](std::uint32_t stream, const http::HeaderBlock&,
                             bool end_stream) {
    ++result.requests_seen;
    if (end_stream) to_answer.push_back(stream);
  };
  callbacks.on_data = [&](std::uint32_t stream, std::span<const std::uint8_t>,
                          bool end_stream) {
    if (end_stream) to_answer.push_back(stream);
  };
  h2::Connection conn(config, std::move(callbacks));
  conn_ptr = &conn;
  conn.start();

  h2::FrameParser output_parser;
  auto inspect_output = [&](std::span<const std::uint8_t> bytes) {
    if (result.output_parse_error) return;
    auto frames = output_parser.feed(bytes);
    if (!frames) {
      result.output_parse_error = frames.error().message;
      return;
    }
    for (const auto& frame : *frames) {
      if (const auto* goaway = std::get_if<h2::GoawayFrame>(&frame)) {
        result.sent_goaway = true;
        result.goaway_code = goaway->error;
      } else if (const auto* rst = std::get_if<h2::RstStreamFrame>(&frame)) {
        result.resets.emplace_back(rst->stream_id, rst->error);
      }
    }
  };

  auto drain = [&]() {
    while (conn_ptr->want_write() && !result.hang) {
      const auto bytes = conn_ptr->produce(65536);
      if (bytes.empty()) break;
      result.produced_bytes += bytes.size();
      inspect_output(bytes);
      if (result.produced_bytes > opts.produced_cap) {
        result.hang = true;
      }
    }
  };

  auto chunks = r.fork("chunks");
  std::size_t off = 0;
  while (off < input.size() && !result.hang &&
         !result.invariant_violation) {
    const std::size_t take = std::min<std::size_t>(
        input.size() - off,
        static_cast<std::size_t>(chunks.range(1, 4096)));
    conn.receive(input.subspan(off, take));
    off += take;

    // Answer completed requests; closed/errored streams are rejected by
    // submit_response's own state checks via the connection.
    for (const auto stream : to_answer) {
      http::HeaderBlock headers{{":status", "200"},
                                {"content-type", "text/plain"}};
      conn.submit_response(stream, headers, body);
    }
    to_answer.clear();

    drain();
    if (auto violation = conn.check_invariants()) {
      result.invariant_violation = std::move(violation);
    }
  }
  drain();

  result.final_stream_count = conn.stream_count();
  return result;
}

}  // namespace h2push::fuzz
