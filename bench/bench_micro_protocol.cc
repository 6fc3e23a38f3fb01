// Micro-benchmarks for the protocol substrate (google-benchmark): HPACK
// encode/decode, Huffman coding, frame serialization/parsing, priority-tree
// scheduling, and end-to-end simulated page loads. These guard the
// simulator's throughput (the figure harnesses run tens of thousands of
// page loads).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "browser/fetch.h"
#include "core/memo.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "h2/frame.h"
#include "h2/hpack.h"
#include "h2/hpack_huffman.h"
#include "h2/priority.h"
#include "web/corpus.h"

namespace {

using namespace h2push;

http::HeaderBlock sample_headers() {
  return {
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "www.example.com"},
      {":path", "/static/css/main.0a1b2c3d.css"},
      {"accept", "text/html,application/xhtml+xml"},
      {"accept-encoding", "gzip, deflate, br"},
      {"user-agent", "Mozilla/5.0 (X11; Linux x86_64) Chrome/64.0"},
      {"cookie", "session=0123456789abcdef0123456789abcdef"},
  };
}

void BM_HpackEncode(benchmark::State& state) {
  const auto headers = sample_headers();
  h2::HpackEncoder encoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(headers));
  }
}
BENCHMARK(BM_HpackEncode);

void BM_HpackRoundTrip(benchmark::State& state) {
  const auto headers = sample_headers();
  h2::HpackEncoder encoder;
  h2::HpackDecoder decoder;
  for (auto _ : state) {
    const auto bytes = encoder.encode(headers);
    auto decoded = decoder.decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_HpackRoundTrip);

void BM_HuffmanEncode(benchmark::State& state) {
  const std::string input =
      "/very/long/path/with/segments/and-a-hash.0a1b2c3d4e5f.js";
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    h2::huffman_encode(input, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const std::string input =
      "/very/long/path/with/segments/and-a-hash.0a1b2c3d4e5f.js";
  std::vector<std::uint8_t> encoded;
  h2::huffman_encode(input, encoded);
  for (auto _ : state) {
    auto decoded = h2::huffman_decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_HuffmanDecode);

void BM_FrameParse(benchmark::State& state) {
  h2::DataFrame data;
  data.stream_id = 5;
  data.data.assign(16000, 0x42);
  const auto wire = h2::serialize(h2::Frame{data});
  for (auto _ : state) {
    h2::FrameParser parser;
    auto frames = parser.feed(wire);
    benchmark::DoNotOptimize(frames);
  }
}
BENCHMARK(BM_FrameParse);

void BM_PriorityTreePick(benchmark::State& state) {
  h2::PriorityTree tree;
  const int n = static_cast<int>(state.range(0));
  for (int i = 1; i <= n; ++i) {
    tree.add(static_cast<std::uint32_t>(i * 2 + 1),
             h2::PrioritySpec{static_cast<std::uint32_t>(
                                  i > 1 ? (i - 1) * 2 + 1 : 0),
                              16, false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.pick([](std::uint32_t id) { return id % 4 == 1; }));
  }
}
BENCHMARK(BM_PriorityTreePick)->Arg(16)->Arg(128);

// The extremes of a fig2b sweep's trees in one: Chromium's exclusive chain
// (each request depends exclusively on the one before it) 60 streams deep
// from the HTML, with the HTML's 188 promised pushes, which the chain
// adopted on its way down, at the bottom. The HTML and the first ten
// requests are done, so each pick probes its way down to the eleventh.
void BM_PriorityTreePickChromiumChain(benchmark::State& state) {
  h2::PriorityTree tree;
  tree.add(1, h2::PrioritySpec{0, 256, true});
  for (std::uint32_t push = 2; push <= 2 * 188; push += 2) {
    tree.add(push, h2::PrioritySpec{1, 16, false});
  }
  std::uint32_t prev = 1;
  for (std::uint32_t id = 3; id < 1 + 2 * 60; id += 2) {
    tree.add(id, h2::PrioritySpec{prev, 220, true});
    prev = id;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.pick([](std::uint32_t id) { return id % 2 == 1 && id > 21; }));
  }
}
BENCHMARK(BM_PriorityTreePickChromiumChain);

// One connection's HPACK work as a sweep load does it: a fresh encoder and
// decoder per direction, then range(0) requests with the browser's header
// set and their responses (a fig2b connection carries 9 on average).
void BM_HpackConnection(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const std::string host = "www.example.com";
  std::vector<http::HeaderBlock> requests;
  std::vector<http::HeaderBlock> responses;
  for (std::size_t i = 0; i < blocks; ++i) {
    http::Request request;
    request.url = http::Url{"https", host, 443,
                            "/static/asset-" + std::to_string(i) + ".js"};
    request.headers = browser::default_request_headers(host);
    requests.push_back(request.to_h2_headers());
    http::Response response;
    response.type = static_cast<http::ResourceType>(i % 5);
    response.body_size = 1000 + 7919 * i;
    responses.push_back(response.to_h2_headers());
  }
  std::vector<std::uint8_t> wire;
  http::HeaderBlock decoded;
  for (auto _ : state) {
    h2::HpackEncoder client_encoder, server_encoder;
    h2::HpackDecoder client_decoder, server_decoder;
    for (std::size_t i = 0; i < blocks; ++i) {
      client_encoder.encode_into(requests[i], wire);
      benchmark::DoNotOptimize(server_decoder.decode_into(wire, decoded));
      server_encoder.encode_into(responses[i], wire);
      benchmark::DoNotOptimize(client_decoder.decode_into(wire, decoded));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * blocks));
}
BENCHMARK(BM_HpackConnection)->Arg(9);

void BM_PageLoad(benchmark::State& state) {
  const auto profile = web::PopulationProfile::random100();
  const auto site =
      web::build_site(web::generate_page(profile, "bench-load", 99));
  core::RunConfig cfg;
  const auto strategy = core::no_push();
  for (auto _ : state) {
    cfg.run_index = static_cast<int>(state.iterations() % 1000);
    benchmark::DoNotOptimize(core::run_page_load(site, strategy, cfg));
  }
}
BENCHMARK(BM_PageLoad)->Unit(benchmark::kMillisecond);

void BM_PageLoadMemoized(benchmark::State& state) {
  const auto profile = web::PopulationProfile::random100();
  const auto site =
      web::build_site(web::generate_page(profile, "bench-load", 99));
  core::RunCache cache;
  core::RunConfig cfg;
  cfg.cache = &cache;
  const auto strategy = core::no_push();
  for (auto _ : state) {
    cfg.run_index = static_cast<int>(state.iterations() % 1000);
    benchmark::DoNotOptimize(core::run_page_load(site, strategy, cfg));
  }
}
BENCHMARK(BM_PageLoadMemoized)->Unit(benchmark::kMicrosecond);

void BM_SiteGeneration(benchmark::State& state) {
  const auto profile = web::PopulationProfile::top100();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::build_site(
        web::generate_page(profile, "gen-" + std::to_string(i++ % 64), 7)));
  }
}
BENCHMARK(BM_SiteGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip the harness-wide flags scripts/bench.sh passes uniformly
  // (--quick, --jobs N, --cache DIR); google-benchmark rejects unknown
  // arguments.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") continue;
    if ((arg == "--jobs" || arg == "--cache") && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
