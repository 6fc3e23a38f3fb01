// Frame codec tests: serialization round trips for all frame types,
// incremental parsing across arbitrary chunk boundaries, CONTINUATION
// reassembly, and protocol error cases.
#include <gtest/gtest.h>

#include "h2/frame.h"
#include "h2/cache_digest.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

std::vector<Frame> parse_all(std::span<const std::uint8_t> wire) {
  FrameParser parser;
  auto frames = parser.feed(wire);
  EXPECT_TRUE(frames.has_value());
  return frames.has_value() ? std::move(*frames) : std::vector<Frame>{};
}

TEST(FrameCodec, DataRoundTrip) {
  DataFrame f;
  f.stream_id = 7;
  f.end_stream = true;
  f.data = {1, 2, 3, 4, 5};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& d = std::get<DataFrame>(frames[0]);
  EXPECT_EQ(d.stream_id, 7u);
  EXPECT_TRUE(d.end_stream);
  EXPECT_EQ(d.data, f.data);
}

TEST(FrameCodec, HeadersWithPriorityRoundTrip) {
  HeadersFrame f;
  f.stream_id = 3;
  f.end_stream = false;
  f.priority = PrioritySpec{1, 220, true};
  f.header_block = {0x82, 0x87};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& h = std::get<HeadersFrame>(frames[0]);
  EXPECT_EQ(h.stream_id, 3u);
  ASSERT_TRUE(h.priority.has_value());
  EXPECT_EQ(h.priority->depends_on, 1u);
  EXPECT_EQ(h.priority->weight, 220);
  EXPECT_TRUE(h.priority->exclusive);
  EXPECT_EQ(h.header_block, f.header_block);
}

TEST(FrameCodec, WeightBoundsRoundTrip) {
  for (std::uint16_t weight : {1, 16, 255, 256}) {
    PriorityFrame f;
    f.stream_id = 5;
    f.priority = PrioritySpec{0, weight, false};
    const auto frames = parse_all(serialize(Frame{f}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(std::get<PriorityFrame>(frames[0]).priority.weight, weight);
  }
}

TEST(FrameCodec, LargeHeaderBlockSplitsIntoContinuations) {
  HeadersFrame f;
  f.stream_id = 9;
  f.end_stream = true;
  f.header_block.assign(40000, 0x42);  // > 2 frames at 16384
  const auto wire = serialize(Frame{f});
  // Count CONTINUATION frames on the wire: type byte at offset 3.
  int continuations = 0;
  std::size_t pos = 0;
  while (pos + 9 <= wire.size()) {
    const std::size_t len = (static_cast<std::size_t>(wire[pos]) << 16) |
                            (static_cast<std::size_t>(wire[pos + 1]) << 8) |
                            wire[pos + 2];
    if (wire[pos + 3] == 0x9) ++continuations;
    pos += 9 + len;
  }
  EXPECT_EQ(continuations, 2);
  const auto frames = parse_all(wire);
  ASSERT_EQ(frames.size(), 1u);  // reassembled
  const auto& h = std::get<HeadersFrame>(frames[0]);
  EXPECT_EQ(h.header_block.size(), 40000u);
  EXPECT_TRUE(h.end_stream);
}

TEST(FrameCodec, PushPromiseRoundTrip) {
  PushPromiseFrame f;
  f.stream_id = 1;
  f.promised_id = 2;
  f.header_block = {0x82, 0x84, 0x86};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& p = std::get<PushPromiseFrame>(frames[0]);
  EXPECT_EQ(p.stream_id, 1u);
  EXPECT_EQ(p.promised_id, 2u);
  EXPECT_EQ(p.header_block, f.header_block);
}

TEST(FrameCodec, SettingsRoundTrip) {
  SettingsFrame f;
  f.settings = {{SettingsId::kEnablePush, 0},
                {SettingsId::kInitialWindowSize, 6 * 1024 * 1024},
                {SettingsId::kMaxFrameSize, 16384}};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& s = std::get<SettingsFrame>(frames[0]);
  EXPECT_FALSE(s.ack);
  ASSERT_EQ(s.settings.size(), 3u);
  EXPECT_EQ(s.settings[0].first, SettingsId::kEnablePush);
  EXPECT_EQ(s.settings[1].second, 6u * 1024 * 1024);
}

TEST(FrameCodec, SettingsAckRoundTrip) {
  SettingsFrame f;
  f.ack = true;
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::get<SettingsFrame>(frames[0]).ack);
}

TEST(FrameCodec, RstGoawayWindowUpdatePingRoundTrip) {
  std::vector<Frame> inputs;
  inputs.emplace_back(RstStreamFrame{5, ErrorCode::kCancel});
  inputs.emplace_back(GoawayFrame{17, ErrorCode::kProtocolError, "bye"});
  inputs.emplace_back(WindowUpdateFrame{0, 1048576});
  inputs.emplace_back(PingFrame{false, 0xDEADBEEFCAFEF00DULL});
  std::vector<std::uint8_t> wire;
  for (const auto& f : inputs) {
    const auto bytes = serialize(f);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  const auto frames = parse_all(wire);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(std::get<RstStreamFrame>(frames[0]).error, ErrorCode::kCancel);
  EXPECT_EQ(std::get<GoawayFrame>(frames[1]).debug_data, "bye");
  EXPECT_EQ(std::get<GoawayFrame>(frames[1]).last_stream_id, 17u);
  EXPECT_EQ(std::get<WindowUpdateFrame>(frames[2]).increment, 1048576u);
  EXPECT_EQ(std::get<PingFrame>(frames[3]).opaque, 0xDEADBEEFCAFEF00DULL);
}

TEST(FrameParser, HandlesArbitraryChunking) {
  // A realistic mixed frame sequence fed one byte at a time.
  std::vector<std::uint8_t> wire;
  for (const Frame& f : std::initializer_list<Frame>{
           Frame{SettingsFrame{false, {{SettingsId::kEnablePush, 1}}}},
           Frame{HeadersFrame{1, true, std::nullopt, {0x82, 0x84}}},
           Frame{DataFrame{1, false, std::vector<std::uint8_t>(5000, 1)}},
           Frame{DataFrame{1, true, std::vector<std::uint8_t>(100, 2)}}}) {
    const auto bytes = serialize(f);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  util::Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    FrameParser parser;
    std::vector<Frame> collected;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 700)),
          wire.size() - pos);
      auto frames = parser.feed({wire.data() + pos, n});
      ASSERT_TRUE(frames.has_value());
      for (auto& f : *frames) collected.push_back(std::move(f));
      pos += n;
    }
    ASSERT_EQ(collected.size(), 4u);
    EXPECT_EQ(std::get<DataFrame>(collected[2]).data.size(), 5000u);
    EXPECT_TRUE(std::get<DataFrame>(collected[3]).end_stream);
  }
}

// The parse loop hands DATA on as a view: a frame wholly inside the chunk
// being parsed is viewed where it lies (no copy), and only a frame split
// across chunks is reassembled — once — in the parser's buffer.
TEST(FrameParser, ParseViewsDataInPlaceAndCopiesOnlySplitFrames) {
  struct Views final : FrameHandler {
    std::vector<std::span<const std::uint8_t>> data;
    void on_data(const DataView& f) override { data.push_back(f.data); }
    void on_header_block(const HeaderBlockView&) override {}
    void on_frame(Frame&&) override {}
  };
  std::vector<std::uint8_t> wire;
  for (std::uint32_t stream : {1u, 3u}) {
    append_data_frame(wire, stream, false, std::vector<std::uint8_t>(1000, 7));
  }
  FrameParser parser;
  Views views;
  // All of frame 1 and part of frame 2.
  const std::span<const std::uint8_t> bytes(wire);
  ASSERT_FALSE(parser.parse(bytes.first(1500), views));
  ASSERT_EQ(views.data.size(), 1u);
  EXPECT_EQ(views.data[0].data(), wire.data() + 9);  // in place
  EXPECT_EQ(views.data[0].size(), 1000u);
  ASSERT_FALSE(parser.parse(bytes.subspan(1500), views));
  ASSERT_EQ(views.data.size(), 2u);
  EXPECT_EQ(views.data[1].size(), 1000u);
  const auto* second = views.data[1].data();
  EXPECT_FALSE(second >= wire.data() && second < wire.data() + wire.size())
      << "a split frame must come from the parser's own buffer";
}

// A DATA payload that arrives as borrowed runs (util/wire.h), each
// continuing the last in one body, is handed on as a view into the body,
// and the parser copies only the frame header. An owned run, or a
// borrowed one that does not continue the view, makes the parser copy the
// payload so far and go on copying. Either way the frame is the same and
// is handed on when its last byte arrives.
TEST(FrameParser, BorrowedPayloadStaysAViewUntilARunBreaksIt) {
  struct Payloads final : FrameHandler {
    std::vector<std::span<const std::uint8_t>> views;
    std::vector<std::vector<std::uint8_t>> bytes;
    void on_data(const DataView& f) override {
      views.push_back(f.data);
      bytes.emplace_back(f.data.begin(), f.data.end());
    }
    void on_header_block(const HeaderBlockView&) override {}
    void on_frame(Frame&&) override {}
  };
  std::vector<std::uint8_t> pattern(4000);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i % 251);
  }
  const auto body = std::make_shared<const std::vector<std::uint8_t>>(pattern);
  const auto other = std::make_shared<const std::vector<std::uint8_t>>(pattern);
  const util::Pin body_pin = body;
  const util::Pin other_pin = other;
  std::vector<std::uint8_t> header;
  append_data_frame(header, 5, true, pattern);
  header.resize(9);
  const std::span<const std::uint8_t> b(*body);
  const std::span<const std::uint8_t> o(*other);
  const std::span<const std::uint8_t> owned(pattern);
  const util::WireBytes head1{std::span(header).first(5)};
  const util::WireBytes head2{std::span(header).subspan(5)};
  struct Case {
    const char* name;
    std::vector<util::WireBytes> runs;
    bool viewed;
  };
  const Case cases[] = {
      {"borrowed and contiguous",
       {head1, head2, {b.subspan(0, 1000), &body_pin},
        {b.subspan(1000, 1000), &body_pin}, {b.subspan(2000), &body_pin}},
       true},
      {"an owned run",
       {head1, head2, {b.subspan(0, 1000), &body_pin},
        {owned.subspan(1000, 1000)}, {b.subspan(2000), &body_pin}},
       false},
      {"a run from another body",
       {head1, head2, {b.subspan(0, 1000), &body_pin},
        {o.subspan(1000, 1000), &other_pin}, {b.subspan(2000), &body_pin}},
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FrameParser parser;
    Payloads payloads;
    for (const util::WireBytes& run : c.runs) {
      EXPECT_TRUE(payloads.views.empty()) << "handed on before its last byte";
      ASSERT_FALSE(parser.parse(run, payloads));
    }
    ASSERT_EQ(payloads.bytes.size(), 1u);
    EXPECT_EQ(payloads.bytes[0], pattern);
    EXPECT_EQ(payloads.views[0].data() == body->data(), c.viewed);
    EXPECT_EQ(parser.copied_bytes(), c.viewed ? 9u : 9u + pattern.size());
  }
}

TEST(FrameParser, RejectsOversizedFrame) {
  FrameParser parser(16384);
  std::vector<std::uint8_t> wire{0x01, 0x00, 0x00,  // 65536
                                 0x00, 0x00, 0x00, 0x00, 0x00, 0x01};
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsDataOnStreamZero) {
  DataFrame f;
  f.stream_id = 0;
  f.data = {1};
  auto wire = serialize(Frame{f});
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsInterleavedFrameDuringContinuation) {
  HeadersFrame f;
  f.stream_id = 3;
  f.header_block.assign(20000, 0x1);  // forces CONTINUATION
  auto wire = serialize(Frame{f});
  // Truncate to just the first HEADERS frame and append a PING.
  const std::size_t first_len = 16384 + 9;
  wire.resize(first_len);
  const auto ping = serialize(Frame{PingFrame{false, 1}});
  wire.insert(wire.end(), ping.begin(), ping.end());
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsZeroWindowIncrement) {
  std::vector<std::uint8_t> wire{0x00, 0x00, 0x04, 0x08, 0x00,
                                 0x00, 0x00, 0x00, 0x01, 0x00,
                                 0x00, 0x00, 0x00};
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, SurfacesUnknownFrameTypesAsExtensions) {
  std::vector<std::uint8_t> wire{0x00, 0x00, 0x02, 0x77, 0x09,
                                 0x00, 0x00, 0x00, 0x01, 0xAA, 0xBB};
  const auto ping = serialize(Frame{PingFrame{false, 5}});
  wire.insert(wire.end(), ping.begin(), ping.end());
  FrameParser parser;
  auto frames = parser.feed(wire);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 2u);
  const auto& ext = std::get<ExtensionFrame>((*frames)[0]);
  EXPECT_EQ(ext.type, 0x77);
  EXPECT_EQ(ext.flags, 0x09);
  EXPECT_EQ(ext.stream_id, 1u);
  EXPECT_EQ(ext.payload, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(std::get<PingFrame>((*frames)[1]).opaque, 5u);
}

TEST(FrameCodec, ExtensionFrameRoundTrips) {
  ExtensionFrame f;
  f.type = kCacheDigestFrameType;
  f.flags = 0x1;
  f.stream_id = 0;
  f.payload = {0x05, 0x07, 0x80};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& e = std::get<ExtensionFrame>(frames[0]);
  EXPECT_EQ(e.type, kCacheDigestFrameType);
  EXPECT_EQ(e.payload, f.payload);
}

TEST(FrameCodec, ClientPrefaceIs24Bytes) {
  const auto preface = client_preface();
  EXPECT_EQ(preface.size(), 24u);
  EXPECT_EQ(std::string(preface.begin(), preface.begin() + 3), "PRI");
}

}  // namespace
}  // namespace h2push::h2
