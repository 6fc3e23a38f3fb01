// HPACK unit + property tests: integer coding, Huffman, static/dynamic
// tables, encoder/decoder round trips, and RFC 7541 error cases.
#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <string>
#include <vector>

#include "h2/hpack.h"
#include "h2/hpack_huffman.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

// ---------------------------------------------------------------- integers

TEST(HpackInt, EncodesSmallValueInPrefix) {
  std::vector<std::uint8_t> out;
  hpack_encode_int(10, 5, 0x00, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 10);
}

TEST(HpackInt, Rfc7541ExampleC11) {
  // C.1.1: encoding 10 with a 5-bit prefix.
  std::vector<std::uint8_t> out;
  hpack_encode_int(10, 5, 0, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x0a}));
}

TEST(HpackInt, Rfc7541ExampleC12) {
  // C.1.2: encoding 1337 with a 5-bit prefix → 1f 9a 0a.
  std::vector<std::uint8_t> out;
  hpack_encode_int(1337, 5, 0, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x1f, 0x9a, 0x0a}));
}

TEST(HpackInt, PreservesFlagBits) {
  std::vector<std::uint8_t> out;
  hpack_encode_int(3, 6, 0x40, out);
  EXPECT_EQ(out[0], 0x43);
}

TEST(HpackInt, DecodeTruncatedFails) {
  const std::vector<std::uint8_t> bytes{0x1f};  // continuation expected
  std::size_t pos = 0;
  EXPECT_FALSE(hpack_decode_int(bytes, pos, 5).has_value());
}

TEST(HpackInt, DecodeOverflowFails) {
  std::vector<std::uint8_t> bytes{0x1f};
  for (int i = 0; i < 12; ++i) bytes.push_back(0xff);
  bytes.push_back(0x7f);
  std::size_t pos = 0;
  EXPECT_FALSE(hpack_decode_int(bytes, pos, 5).has_value());
}

class HpackIntRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HpackIntRoundTrip, RoundTripsAcrossPrefixSizes) {
  const int prefix = GetParam();
  util::Rng rng(0x1234 + static_cast<std::uint64_t>(prefix));
  for (int i = 0; i < 500; ++i) {
    const auto value =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
    std::vector<std::uint8_t> out;
    hpack_encode_int(value, prefix, 0, out);
    std::size_t pos = 0;
    auto decoded = hpack_decode_int(out, pos, prefix);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, value);
    EXPECT_EQ(pos, out.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrefixes, HpackIntRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------------- huffman

TEST(Huffman, EncodesRfcExample) {
  // RFC 7541 C.4.1: "www.example.com" → f1e3 c2e5 f23a 6ba0 ab90 f4ff.
  std::vector<std::uint8_t> out;
  huffman_encode("www.example.com", out);
  const std::vector<std::uint8_t> expected{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a,
                                           0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff};
  EXPECT_EQ(out, expected);
}

TEST(Huffman, DecodesRfcExample) {
  const std::vector<std::uint8_t> wire{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a,
                                       0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff};
  auto decoded = huffman_decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, "www.example.com");
}

TEST(Huffman, EncodedSizeMatchesEncoding) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    const auto len = rng.uniform_int(0, 64);
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::vector<std::uint8_t> out;
    huffman_encode(s, out);
    EXPECT_EQ(out.size(), huffman_encoded_size(s));
  }
}

TEST(Huffman, RoundTripsArbitraryBytes) {
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string s;
    const auto len = rng.uniform_int(0, 200);
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::vector<std::uint8_t> out;
    huffman_encode(s, out);
    auto decoded = huffman_decode(out);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, s);
  }
}

TEST(Huffman, RejectsBadPadding) {
  // A full byte of zero bits cannot be EOS padding.
  const std::vector<std::uint8_t> bad{0x00};
  // 0x00 decodes '0' after 5 bits then 3 zero-bits padding → invalid
  // padding (must be all ones).
  auto result = huffman_decode(bad);
  EXPECT_FALSE(result.has_value());
}

// A bit-at-a-time reference decoder over a binary trie of the RFC 7541
// Appendix B code. The code is read back from the encoder (eight copies of
// a symbol fill whole bytes, so they give its bit length and bits exactly);
// EOS is 30 one bits.
class BitTrieDecoder {
 public:
  BitTrieDecoder() {
    nodes_.emplace_back();
    for (int sym = 0; sym < 256; ++sym) {
      std::vector<std::uint8_t> bytes;
      huffman_encode(std::string(8, static_cast<char>(sym)), bytes);
      std::vector<int> bits;
      for (std::size_t i = 0; i < bytes.size(); ++i) {  // 8 * len / 8 bytes
        bits.push_back((bytes[i / 8] >> (7 - i % 8)) & 1);
      }
      insert(bits, sym);
    }
    insert(std::vector<int>(30, 1), 256);
  }

  const char* decode(std::span<const std::uint8_t> input,
                     std::string& out) const {
    int node = 0;
    int pending = 0;  // bits since the last symbol
    bool all_ones = true;
    for (std::uint8_t byte : input) {
      for (int bit = 7; bit >= 0; --bit) {
        const int b = (byte >> bit) & 1;
        node = nodes_[static_cast<std::size_t>(node)].child[b];
        if (node < 0) return "huffman: invalid code";
        ++pending;
        all_ones = all_ones && b == 1;
        const int symbol = nodes_[static_cast<std::size_t>(node)].symbol;
        if (symbol == 256) return "huffman: EOS in stream";
        if (symbol >= 0) {
          out.push_back(static_cast<char>(symbol));
          node = 0;
          pending = 0;
          all_ones = true;
        }
      }
    }
    if (pending > 7 || !all_ones) return "huffman: invalid padding";
    return nullptr;
  }

 private:
  struct Node {
    int child[2] = {-1, -1};
    int symbol = -1;
  };
  void insert(const std::vector<int>& bits, int symbol) {
    int node = 0;
    for (int b : bits) {
      if (nodes_[static_cast<std::size_t>(node)].child[b] < 0) {
        nodes_[static_cast<std::size_t>(node)].child[b] =
            static_cast<int>(nodes_.size());
        nodes_.emplace_back();
      }
      node = nodes_[static_cast<std::size_t>(node)].child[b];
    }
    nodes_[static_cast<std::size_t>(node)].symbol = symbol;
  }
  std::vector<Node> nodes_;
};

// The table-driven decoder against the bit-at-a-time trie: same output,
// same partial output and same error message, for every single byte, for
// encodings of random strings, and for raw bytes that end in bad padding
// or run into EOS.
TEST(Huffman, DecoderMatchesBitTrieReference) {
  const BitTrieDecoder reference;
  const auto check = [&](const std::vector<std::uint8_t>& input) {
    std::string want = "prefix:";
    std::string got = "prefix:";
    const char* want_error = reference.decode(input, want);
    const char* got_error = huffman_decode_into(input, got);
    ASSERT_EQ(std::string(want_error ? want_error : "ok"),
              std::string(got_error ? got_error : "ok"));
    ASSERT_EQ(got, want);
  };
  for (int sym = 0; sym < 256; ++sym) {
    std::vector<std::uint8_t> encoded;
    huffman_encode(std::string(1, static_cast<char>(sym)), encoded);
    ASSERT_NO_FATAL_FAILURE(check(encoded)) << "symbol " << sym;
    ASSERT_NO_FATAL_FAILURE(check({static_cast<std::uint8_t>(sym)}))
        << "raw byte " << sym;
  }
  util::Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    const auto len = rng.uniform_int(0, 80);
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::vector<std::uint8_t> encoded;
    huffman_encode(s, encoded);
    ASSERT_NO_FATAL_FAILURE(check(encoded)) << "string " << i;
    // Padding made too long (a whole extra byte of ones) or not all ones.
    encoded.push_back(0xff);
    ASSERT_NO_FATAL_FAILURE(check(encoded)) << "long padding " << i;
    encoded.back() = static_cast<std::uint8_t>(rng.uniform_int(0, 0xfe));
    ASSERT_NO_FATAL_FAILURE(check(encoded)) << "bad padding " << i;
    // Raw bytes, leaning on 0xff so that EOS (30 ones) comes up.
    std::vector<std::uint8_t> raw;
    const auto raw_len = rng.uniform_int(1, 12);
    for (int j = 0; j < raw_len; ++j) {
      raw.push_back(rng.uniform_int(0, 2) == 0
                        ? 0xff
                        : static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    ASSERT_NO_FATAL_FAILURE(check(raw)) << "raw " << i;
  }
  ASSERT_NO_FATAL_FAILURE(check({0xff, 0xff, 0xff, 0xff}));  // EOS
  ASSERT_NO_FATAL_FAILURE(check({}));
}

// ------------------------------------------------------------ dynamic table

TEST(HpackDynamicTable, EvictsOldestWhenFull) {
  HpackDynamicTable table(100);
  table.add("aaaa", "bbbb");  // 8 + 32 = 40
  table.add("cccc", "dddd");  // 40 (total 80)
  table.add("eeee", "ffff");  // would exceed: evict the oldest
  EXPECT_EQ(table.entry_count(), 2u);
  EXPECT_EQ(table.at(0).name, "eeee");
  EXPECT_EQ(table.at(1).name, "cccc");
}

TEST(HpackDynamicTable, OversizedEntryClearsTable) {
  HpackDynamicTable table(50);
  table.add("a", "b");
  table.add(std::string(100, 'x'), "y");
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(HpackDynamicTable, SetMaxSizeEvicts) {
  HpackDynamicTable table(200);
  table.add("aaaa", "bbbb");
  table.add("cccc", "dddd");
  table.set_max_size(50);
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.at(0).name, "cccc");
}

// The dynamic table's hashed index against a scan of a plain FIFO model of
// RFC 7541 §4: after every step the entries, sizes and find() results must
// agree (find: the newest exact match and the newest name match). Names
// and values share their first and last 8 bytes in places, so they collide
// in the index's hash and only the byte compare tells them apart.
TEST(Hpack, DynamicIndexMatchesLinearScan) {
  const std::string mid(20, 'm');
  const std::vector<std::string> names{
      "x-a", "x-b", "cookie", "content-type", "",
      "x-long-name-" + mid + "a-tail", "x-long-name-" + mid + "b-tail"};
  const std::vector<std::string> values{
      "", "1", "2", "text/html", "12345678", "1234567812345678",
      "prefix--" + mid + "one-" + "--suffix",
      "prefix--" + mid + "two-" + "--suffix", std::string(300, 'v'),
      std::string(1500, 'w')};
  struct Model {
    std::deque<std::pair<std::string, std::string>> entries;  // newest first
    std::size_t size = 0;
    std::size_t max = 4096;
    void evict_to(std::size_t limit) {
      while (size > limit && !entries.empty()) {
        size -= entries.back().first.size() + entries.back().second.size() + 32;
        entries.pop_back();
      }
    }
    void add(const std::string& n, const std::string& v) {
      const std::size_t entry = n.size() + v.size() + 32;
      if (entry > max) {
        evict_to(0);
        return;
      }
      evict_to(max - entry);
      entries.emplace_front(n, v);
      size += entry;
    }
    std::size_t scan(const std::string& n, const std::string& v,
                     std::size_t& name_only) const {
      name_only = HpackDynamicTable::npos;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].first != n) continue;
        if (name_only == HpackDynamicTable::npos) name_only = i;
        if (entries[i].second == v) return i;
      }
      return HpackDynamicTable::npos;
    }
  };
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    HpackDynamicTable table;
    Model model;
    const auto pick = [&](const std::vector<std::string>& pool) {
      return pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    for (int step = 0; step < 1500; ++step) {
      const auto op = rng.uniform_int(0, 99);
      if (op < 3) {
        // Shrink (0 empties the table) or regrow the limit.
        const std::size_t sizes[] = {0, 64, 200, 1024, 4096, 8192};
        const std::size_t max = sizes[rng.uniform_int(0, 5)];
        table.set_max_size(max);
        model.max = max;
        model.evict_to(max);
      } else if (op < 5) {
        const std::string big(model.max + 1, 'z');  // oversized: empties
        table.add("x-big", big);
        model.add("x-big", big);
      } else {
        const std::string n = pick(names);
        const std::string v = pick(values);
        table.add(n, v);
        model.add(n, v);
      }
      ASSERT_EQ(table.entry_count(), model.entries.size())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(table.size(), model.size);
      for (std::size_t i = 0; i < model.entries.size(); ++i) {
        ASSERT_EQ(table.at(i).name, model.entries[i].first) << "entry " << i;
        ASSERT_EQ(table.at(i).value, model.entries[i].second) << "entry " << i;
      }
      for (int probe = 0; probe < 6; ++probe) {
        const std::string n = pick(names);
        const std::string v = pick(values);
        std::size_t want_name = 0;
        std::size_t got_name = 0;
        const std::size_t want = model.scan(n, v, want_name);
        ASSERT_EQ(table.find(n, v, got_name), want)
            << "seed " << seed << " step " << step << " " << n << "=" << v;
        ASSERT_EQ(got_name, want_name)
            << "seed " << seed << " step " << step << " " << n;
      }
    }
  }
}

// ----------------------------------------------------------- encode/decode

http::HeaderBlock request_headers() {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", "www.example.org"},
          {":path", "/static/app.js"},
          {"accept-encoding", "gzip, deflate"},
          {"user-agent", "h2push-test/1.0"}};
}

TEST(Hpack, RoundTripsSimpleBlock) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const auto block = request_headers();
  const auto wire = encoder.encode(block);
  auto decoded = decoder.decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(Hpack, SecondEncodingIsSmaller) {
  HpackEncoder encoder;
  const auto block = request_headers();
  const auto first = encoder.encode(block);
  const auto second = encoder.encode(block);
  EXPECT_LT(second.size(), first.size());  // indexed representations
  // And a shared decoder still reproduces both.
  HpackDecoder decoder;
  auto d1 = decoder.decode(first);
  auto d2 = decoder.decode(second);
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(*d1, block);
  EXPECT_EQ(*d2, block);
}

TEST(Hpack, StaticTableExactMatchIsOneByte) {
  HpackEncoder encoder;
  const auto wire = encoder.encode({{":method", "GET"}});
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0], 0x82);  // static index 2
}

// The encoder finds static entries through a hashed name index; it must
// answer exactly as a scan of Appendix A in index order would.
TEST(Hpack, StaticIndexMatchesLinearScan) {
  const auto scan = [](const std::string& name, const std::string& value,
                       std::size_t& name_only) {
    name_only = 0;
    for (std::size_t i = 1; i <= hpack_static_table_size(); ++i) {
      const auto [n, v] = hpack_static_at(i);
      if (n != name) continue;
      if (name_only == 0) name_only = i;
      if (v == value) return i;
    }
    return std::size_t{0};
  };
  std::vector<std::pair<std::string, std::string>> probes;
  for (std::size_t i = 1; i <= hpack_static_table_size(); ++i) {
    const auto [n, v] = hpack_static_at(i);
    probes.emplace_back(n, v);
    probes.emplace_back(n, "other");
    probes.emplace_back(std::string(n) + "x", v);
  }
  probes.emplace_back("", "");
  probes.emplace_back("x-custom", "1");
  for (const auto& [name, value] : probes) {
    std::size_t want_name = 0;
    std::size_t got_name = 0;
    const std::size_t want = scan(name, value, want_name);
    EXPECT_EQ(hpack_static_find(name, value, got_name), want) << name;
    EXPECT_EQ(got_name, want_name) << name;
  }
}

// decode_into builds each field over the storage the block already holds:
// a shorter block after a longer one leaves exactly the new fields.
TEST(Hpack, DecodeIntoReusesTheBlock) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const http::HeaderBlock long_block{{":status", "200"},
                                     {"content-type", "text/css"},
                                     {"x-long", std::string(100, 'v')}};
  const http::HeaderBlock short_block{{":status", "404"}};
  http::HeaderBlock out;
  ASSERT_EQ(decoder.decode_into(encoder.encode(long_block), out), nullptr);
  EXPECT_EQ(out, long_block);
  ASSERT_EQ(decoder.decode_into(encoder.encode(short_block), out), nullptr);
  EXPECT_EQ(out, short_block);
  ASSERT_EQ(decoder.decode_into(encoder.encode(long_block), out), nullptr);
  EXPECT_EQ(out, long_block);
}

TEST(Hpack, DecoderRejectsIndexOutOfRange) {
  HpackDecoder decoder;
  const std::vector<std::uint8_t> wire{0xff, 0x7f};  // huge index
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, DecoderRejectsSizeUpdateAboveSettingsCap) {
  HpackDecoder decoder;
  decoder.set_max_table_size(4096);
  std::vector<std::uint8_t> wire;
  hpack_encode_int(65536, 5, 0x20, wire);
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, DecoderRejectsSizeUpdateAfterHeader) {
  HpackEncoder encoder;
  auto wire = encoder.encode({{":method", "GET"}});
  hpack_encode_int(1024, 5, 0x20, wire);  // size update after a field
  HpackDecoder decoder;
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, TableSizeUpdateRoundTrips) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  (void)encoder.encode(request_headers());
  encoder.set_table_size(128);
  const auto wire = encoder.encode(request_headers());
  auto decoded = decoder.decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request_headers());
  EXPECT_LE(decoder.table().max_size(), 128u);
}

struct FuzzCase {
  std::uint64_t seed;
};

class HpackFuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HpackFuzzRoundTrip, RandomHeaderBlocksSurviveSharedState) {
  util::Rng rng(0xABCDEF + static_cast<std::uint64_t>(GetParam()));
  HpackEncoder encoder(1024);
  HpackDecoder decoder(1024);
  for (int block_i = 0; block_i < 50; ++block_i) {
    http::HeaderBlock block;
    const auto n = rng.uniform_int(1, 12);
    for (int f = 0; f < n; ++f) {
      std::string name, value;
      const auto name_len = rng.uniform_int(1, 20);
      for (int c = 0; c < name_len; ++c) {
        name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
      }
      const auto value_len = rng.uniform_int(0, 60);
      for (int c = 0; c < value_len; ++c) {
        value.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      block.push_back({std::move(name), std::move(value)});
    }
    const auto wire = encoder.encode(block, rng.bernoulli(0.5));
    auto decoded = decoder.decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error();
    EXPECT_EQ(*decoded, block);
    // Encoder and decoder dynamic tables stay in lockstep.
    EXPECT_EQ(encoder.table().size(), decoder.table().size());
    EXPECT_EQ(encoder.table().entry_count(), decoder.table().entry_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackFuzzRoundTrip, ::testing::Range(0, 8));

}  // namespace
}  // namespace h2push::h2
