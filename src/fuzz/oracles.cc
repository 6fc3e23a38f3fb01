#include "fuzz/oracles.h"

#include <sstream>

namespace h2push::fuzz {

namespace {

std::string hex(std::span<const std::uint8_t> bytes, std::size_t limit = 48) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < bytes.size() && i < limit; ++i) {
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 0xf];
  }
  if (bytes.size() > limit) out += "...";
  return out;
}

}  // namespace

std::optional<std::string> frame_round_trip(const h2::Frame& frame) {
  const auto wire = h2::serialize(frame);
  h2::FrameParser parser;
  auto parsed = parser.feed(wire);
  if (!parsed) {
    return "parser rejected own serializer output: " +
           parsed.error().message + " [" + hex(wire) + "]";
  }
  if (parsed->size() != 1) {
    return "expected exactly one frame back, got " +
           std::to_string(parsed->size()) + " [" + hex(wire) + "]";
  }
  if (!((*parsed)[0] == frame)) {
    return "decoded frame differs from original [" + hex(wire) + "]";
  }
  const auto rewire = h2::serialize((*parsed)[0]);
  if (rewire != wire) {
    return "re-serialization not byte-identical: " + hex(wire) + " vs " +
           hex(rewire);
  }
  return std::nullopt;
}

std::optional<std::string> tables_equal(const h2::HpackDynamicTable& a,
                                        const h2::HpackDynamicTable& b) {
  if (a.entry_count() != b.entry_count()) {
    return "entry counts differ: " + std::to_string(a.entry_count()) +
           " vs " + std::to_string(b.entry_count());
  }
  if (a.size() != b.size()) {
    return "table sizes differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  if (a.max_size() != b.max_size()) {
    return "max sizes differ: " + std::to_string(a.max_size()) + " vs " +
           std::to_string(b.max_size());
  }
  for (std::size_t i = 0; i < a.entry_count(); ++i) {
    if (!(a.at(i) == b.at(i))) {
      const auto [an, av] = a.at(i);
      const auto [bn, bv] = b.at(i);
      std::string message = "entry " + std::to_string(i) + " differs: ";
      message.append(an).append("=").append(av).append(" vs ");
      message.append(bn).append("=").append(bv);
      return message;
    }
  }
  return std::nullopt;
}

std::optional<std::string> hpack_round_trip(h2::HpackEncoder& encoder,
                                            h2::HpackDecoder& decoder,
                                            const http::HeaderBlock& block,
                                            bool use_huffman) {
  const auto bytes = encoder.encode(block, use_huffman);
  auto decoded = decoder.decode(bytes);
  if (!decoded) {
    return "decoder rejected encoder output: " + decoded.error() + " [" +
           hex(bytes) + "]";
  }
  if (!(*decoded == block)) {
    std::ostringstream oss;
    oss << "decoded block differs (" << decoded->size() << " vs "
        << block.size() << " headers)";
    for (std::size_t i = 0; i < decoded->size() && i < block.size(); ++i) {
      if (!((*decoded)[i] == block[i])) {
        oss << "; first at " << i << ": " << (*decoded)[i].name << "="
            << (*decoded)[i].value << " vs " << block[i].name << "="
            << block[i].value;
        break;
      }
    }
    return oss.str();
  }
  return tables_equal(encoder.table(), decoder.table());
}

}  // namespace h2push::fuzz
