// Browser model unit tests: HTML tokenizer (incremental), CSS parser and
// selector matching, the shared parsed-stylesheet cache, Chromium
// prioritizer chain, and visual-progress math.
#include <gtest/gtest.h>
#include <atomic>

#include <string>
#include <thread>
#include <vector>

#include "browser/css.h"
#include "browser/html.h"
#include "browser/metrics.h"
#include "browser/priorities.h"
#include "browser/stylesheet_cache.h"

namespace h2push::browser {
namespace {

// -------------------------------------------------------------- tokenizer

std::vector<HtmlToken> tokenize_all(const std::string& doc) {
  HtmlTokenizer tok(&doc);
  std::vector<HtmlToken> out;
  while (auto t = tok.next()) out.push_back(std::move(*t));
  return out;
}

TEST(HtmlTokenizer, BasicTagsAndText) {
  const auto tokens = tokenize_all("<p class=\"a b\">hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, HtmlToken::Kind::kStartTag);
  EXPECT_EQ(tokens[0].name, "p");
  EXPECT_EQ(tokens[0].attr("class"), "a b");
  EXPECT_EQ(tokens[1].kind, HtmlToken::Kind::kText);
  EXPECT_EQ(tokens[1].text, "hello");
  EXPECT_EQ(tokens[2].kind, HtmlToken::Kind::kEndTag);
}

TEST(HtmlTokenizer, AttributeVariants) {
  const auto tokens = tokenize_all(
      "<img src='a.png' width=600 async data-x=\"1\">");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].attr("src"), "a.png");
  EXPECT_EQ(tokens[0].attr("width"), "600");
  EXPECT_TRUE(tokens[0].has_attr("async"));
  EXPECT_EQ(tokens[0].attr("data-x"), "1");
}

TEST(HtmlTokenizer, ScriptContentIsSwallowed) {
  const auto tokens = tokenize_all(
      "<script>var a = '<p>not a tag</p>';</script><p>x</p>");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[0].text, "var a = '<p>not a tag</p>';");
  EXPECT_EQ(tokens[1].name, "p");
}

TEST(HtmlTokenizer, CommentsAndDoctypeSkipped) {
  const auto tokens =
      tokenize_all("<!DOCTYPE html><!-- <p>ignored</p> --><div></div>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "div");
}

TEST(HtmlTokenizer, IncrementalAcrossChunkBoundaries) {
  const std::string full =
      "<head><link rel=\"stylesheet\" href=\"/a.css\"><script "
      "src=\"/b.js\"></script></head><body><p>some text here</p></body>";
  // Feed the document byte by byte; the token stream must match the
  // all-at-once result, modulo text tokens splitting at chunk boundaries
  // (consumers accumulate text, so splits are semantically transparent).
  auto normalize = [](std::vector<HtmlToken> tokens) {
    std::vector<HtmlToken> out;
    for (auto& t : tokens) {
      if (t.kind == HtmlToken::Kind::kText && !out.empty() &&
          out.back().kind == HtmlToken::Kind::kText) {
        out.back().text += t.text;
      } else {
        out.push_back(std::move(t));
      }
    }
    return out;
  };
  const auto expected = normalize(tokenize_all(full));
  std::string doc;
  HtmlTokenizer tok(&doc);
  std::vector<HtmlToken> got;
  for (char c : full) {
    doc.push_back(c);
    while (auto t = tok.next()) got.push_back(std::move(*t));
  }
  got = normalize(std::move(got));
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, expected[i].kind) << i;
    EXPECT_EQ(got[i].name, expected[i].name) << i;
    EXPECT_EQ(got[i].text, expected[i].text) << i;
  }
}

TEST(HtmlTokenizer, PartialTagWaitsForMoreBytes) {
  std::string doc = "<link rel=\"style";
  HtmlTokenizer tok(&doc);
  EXPECT_FALSE(tok.next().has_value());
  doc += "sheet\" href=\"/x.css\">";
  auto t = tok.next();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->attr("href"), "/x.css");
}

TEST(HtmlTokenizer, ByteOffsetsAreAccurate) {
  const std::string doc = "abc<p>x</p>";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].begin, 0u);  // "abc"
  EXPECT_EQ(tokens[0].end, 3u);
  EXPECT_EQ(tokens[1].begin, 3u);  // <p>
  EXPECT_EQ(tokens[1].end, 6u);
}

// -------------------------------------------------------------------- css

TEST(CssParser, ParsesRulesAndDeclarations) {
  const auto sheet = parse_css(".hero { min-height: 240px; color: red; }\n"
                               "h1, .title { font-size: 32px; }");
  ASSERT_EQ(sheet.rules.size(), 2u);
  EXPECT_EQ(sheet.rules[0].selectors[0].text, ".hero");
  ASSERT_EQ(sheet.rules[0].declarations.size(), 2u);
  EXPECT_EQ(sheet.rules[1].selectors.size(), 2u);
}

TEST(CssParser, ParsesFontFace) {
  const auto sheet = parse_css(
      "@font-face { font-family: brand; src: url(/fonts/b.woff2) "
      "format(\"woff2\"); }\n.x { font-family: brand, sans-serif; }");
  ASSERT_EQ(sheet.font_faces.size(), 1u);
  EXPECT_EQ(sheet.font_faces[0].family, "brand");
  EXPECT_EQ(sheet.font_faces[0].url, "/fonts/b.woff2");
  EXPECT_EQ(sheet.rules[0].font_family(), "brand");
  EXPECT_EQ(*sheet.font_url("brand"), "/fonts/b.woff2");
}

TEST(CssParser, ExtractsBackgroundUrls) {
  const auto sheet = parse_css(
      ".hero { background-image: url(\"/img/bg.png\"); }");
  const auto urls = sheet.resource_urls();
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], "/img/bg.png");
}

TEST(CssParser, MediaBlocksAreFlattened) {
  const auto sheet = parse_css(
      "@media (max-width: 600px) { .m { margin: 0; } } .n { padding: 0; }");
  EXPECT_EQ(sheet.rules.size(), 2u);
}

TEST(CssParser, SkipsComments) {
  const auto sheet = parse_css("/* .fake { } */ .real { margin: 1px; }");
  ASSERT_EQ(sheet.rules.size(), 1u);
  EXPECT_EQ(sheet.rules[0].selectors[0].text, ".real");
}

ElementPath make_path(std::initializer_list<ElementPath::Entry> entries) {
  ElementPath p;
  p.chain = entries;
  return p;
}

TEST(CssMatch, ClassAndTagAndId) {
  const auto sheet = parse_css(
      "p.lead { x: 1; } #main { x: 2; } div p { x: 3; } .a.b { x: 4; }");
  const auto lead = make_path({{"p", {"lead"}, ""}});
  EXPECT_TRUE(matches(sheet.rules[0], lead));
  EXPECT_FALSE(matches(sheet.rules[0], make_path({{"p", {"other"}, ""}})));
  EXPECT_TRUE(matches(sheet.rules[1], make_path({{"div", {}, "main"}})));
  const auto nested = make_path({{"div", {}, ""}, {"p", {}, ""}});
  EXPECT_TRUE(matches(sheet.rules[2], nested));
  EXPECT_FALSE(matches(sheet.rules[2], make_path({{"p", {}, ""}})));
  EXPECT_TRUE(matches(sheet.rules[3], make_path({{"i", {"a", "b"}, ""}})));
  EXPECT_FALSE(matches(sheet.rules[3], make_path({{"i", {"a"}, ""}})));
}

TEST(CssMatch, DescendantSkipsIntermediateLevels) {
  const auto sheet = parse_css(".hero p { x: 1; }");
  const auto deep = make_path(
      {{"div", {"hero"}, ""}, {"section", {}, ""}, {"p", {}, ""}});
  EXPECT_TRUE(matches(sheet.rules[0], deep));
}

// ------------------------------------------------------- stylesheet cache

// Each test uses its own texts: the cache is process-wide.
std::string distinct_sheet(const std::string& tag, std::size_t i) {
  return "/* " + tag + " */ .c" + std::to_string(i) +
         " { background: url(/img/" + std::to_string(i) + ".png); }";
}

TEST(StylesheetCache, EqualBytesShareOneInstance) {
  const std::string text = distinct_sheet("equal", 0);
  const std::string copy = text;  // a different buffer, the same bytes
  const SharedStylesheetStats before = shared_stylesheet_stats();
  const auto a = shared_stylesheet(text);
  const auto b = shared_stylesheet(copy);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(shared_stylesheet_stats().lookups - before.lookups, 2u);
  EXPECT_EQ(shared_stylesheet_stats().parses - before.parses, 1u);
  const auto c = shared_stylesheet(distinct_sheet("equal", 1));
  EXPECT_NE(a.get(), c.get());
  ASSERT_EQ(a->rules.size(), 1u);
  EXPECT_EQ(a->rules[0].selectors[0].text, ".c0");
  EXPECT_EQ(c->rules[0].selectors[0].text, ".c1");
}

TEST(StylesheetCache, EntryBoundHolds) {
  for (std::size_t i = 0; i <= kSharedStylesheetEntries; ++i) {
    shared_stylesheet(distinct_sheet("bound", i));
    EXPECT_LE(shared_stylesheet_stats().entries, kSharedStylesheetEntries);
  }
  EXPECT_EQ(shared_stylesheet_stats().entries, kSharedStylesheetEntries);
}

TEST(StylesheetCache, EvictedSheetStaysValidForItsHolder) {
  const std::string text = distinct_sheet("evicted", 0);
  const auto held = shared_stylesheet(text);
  // Push the held entry out with a full cache's worth of newer sheets.
  for (std::size_t i = 1; i <= kSharedStylesheetEntries; ++i) {
    shared_stylesheet(distinct_sheet("evicted", i));
  }
  const auto fresh = shared_stylesheet(text);
  EXPECT_NE(held.get(), fresh.get()) << "entry was not evicted";
  ASSERT_EQ(held->rules.size(), 1u);
  EXPECT_EQ(held->rules[0].selectors[0].text, ".c0");
  EXPECT_EQ(held->resource_urls(), fresh->resource_urls());
}

TEST(StylesheetCache, ConcurrentLookupsAgree) {
  // Phase 1: a few hot sheets, fewer than the bound, looked up from four
  // threads that start together: every thread gets the one shared instance
  // per text, and each text is parsed once between them. Phase 2: churn
  // past the bound while looking up, so evictions race with hits; every
  // result must still be the parse of its text.
  constexpr int kThreads = 4;
  constexpr std::size_t kHot = 8;
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < kHot; ++i) {
    hot.push_back(distinct_sheet("concurrent-hot", i));
  }
  std::vector<std::vector<const Stylesheet*>> seen(kThreads);
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  const std::uint64_t parses_before = shared_stylesheet_stats().parses;
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < kHot; ++i) {
          const auto sheet = shared_stylesheet(hot[i]);
          if (round == 0) seen[t].push_back(sheet.get());
          if (sheet->rules.empty() ||
              sheet->rules[0].selectors[0].text !=
                  ".c" + std::to_string(i)) {
            ++wrong[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(shared_stylesheet_stats().parses - parses_before, kHot);

  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * kSharedStylesheetEntries; ++i) {
        const std::size_t k = (i * 7 + static_cast<std::size_t>(t)) %
                              (kSharedStylesheetEntries + kHot);
        const auto sheet = shared_stylesheet(distinct_sheet("churn", k));
        if (sheet->rules.empty() ||
            sheet->rules[0].selectors[0].text != ".c" + std::to_string(k)) {
          ++wrong[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0);
  EXPECT_LE(shared_stylesheet_stats().entries, kSharedStylesheetEntries);
}

// ------------------------------------------------------------- priorities

TEST(Prioritizer, ClassMapping) {
  EXPECT_EQ(priority_for(http::ResourceType::kCss, true, false),
            NetPriority::kHighest);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, true, false),
            NetPriority::kHigh);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, false, false),
            NetPriority::kMedium);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, false, true),
            NetPriority::kLow);
  EXPECT_EQ(priority_for(http::ResourceType::kImage, false, false),
            NetPriority::kLowest);
}

TEST(Prioritizer, ChainDependsOnLastEqualOrHigher) {
  ChromiumPrioritizer p;
  const auto html = p.assign(1, NetPriority::kHighest);
  EXPECT_EQ(html.depends_on, 0u);
  EXPECT_TRUE(html.exclusive);
  const auto css = p.assign(3, NetPriority::kHighest);
  EXPECT_EQ(css.depends_on, 1u);  // last Highest
  const auto img = p.assign(5, NetPriority::kLowest);
  EXPECT_EQ(img.depends_on, 3u);  // last anything
  const auto js = p.assign(7, NetPriority::kHigh);
  EXPECT_EQ(js.depends_on, 3u);  // skips the image (lower class)
}

TEST(Prioritizer, ClosedStreamsAreNotParents) {
  ChromiumPrioritizer p;
  p.assign(1, NetPriority::kHighest);
  p.assign(3, NetPriority::kHighest);
  p.on_stream_closed(3);
  const auto next = p.assign(5, NetPriority::kHighest);
  EXPECT_EQ(next.depends_on, 1u);
}

TEST(Prioritizer, WeightsDescendWithClass) {
  EXPECT_GT(weight_for(NetPriority::kHighest), weight_for(NetPriority::kHigh));
  EXPECT_GT(weight_for(NetPriority::kHigh), weight_for(NetPriority::kMedium));
  EXPECT_GT(weight_for(NetPriority::kMedium), weight_for(NetPriority::kLow));
  EXPECT_GT(weight_for(NetPriority::kLow), weight_for(NetPriority::kLowest));
}

// ----------------------------------------------------------------- metrics

TEST(VisualProgress, SpeedIndexSingleStep) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(500), 100.0);
  vp.finalize(100.0);
  // Nothing painted until 500 ms, then complete: SI = 500.
  EXPECT_NEAR(vp.speed_index_ms(), 500.0, 1e-6);
  EXPECT_NEAR(vp.first_paint_ms(), 500.0, 1e-6);
  EXPECT_NEAR(vp.last_change_ms(), 500.0, 1e-6);
}

TEST(VisualProgress, SpeedIndexTwoSteps) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(200), 50.0);   // half complete at 200 ms
  vp.record(sim::from_ms(600), 100.0);  // complete at 600 ms
  vp.finalize(100.0);
  // SI = 200 * 1.0 + 400 * 0.5 = 400.
  EXPECT_NEAR(vp.speed_index_ms(), 400.0, 1e-6);
}

TEST(VisualProgress, EarlierCompletionGivesLowerIndex) {
  VisualProgress fast, slow;
  fast.set_reference(0);
  slow.set_reference(0);
  fast.record(sim::from_ms(100), 80.0);
  fast.record(sim::from_ms(500), 100.0);
  slow.record(sim::from_ms(400), 80.0);
  slow.record(sim::from_ms(500), 100.0);
  fast.finalize(100.0);
  slow.finalize(100.0);
  EXPECT_LT(fast.speed_index_ms(), slow.speed_index_ms());
}

TEST(VisualProgress, NonMonotoneRecordsIgnored) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(100), 50.0);
  vp.record(sim::from_ms(200), 40.0);  // ignored
  vp.record(sim::from_ms(300), 60.0);
  vp.finalize(60.0);
  ASSERT_EQ(vp.curve().size(), 2u);
  EXPECT_NEAR(vp.curve()[1].second, 1.0, 1e-9);
}

TEST(VisualProgress, ReferenceShiftsTimes) {
  VisualProgress vp;
  vp.set_reference(sim::from_ms(150));
  vp.record(sim::from_ms(400), 10.0);
  vp.finalize(10.0);
  EXPECT_NEAR(vp.first_paint_ms(), 250.0, 1e-6);
}

TEST(VisualProgress, EmptyFinalizeIsZero) {
  VisualProgress vp;
  vp.finalize(0);
  EXPECT_EQ(vp.speed_index_ms(), 0.0);
  EXPECT_TRUE(vp.curve().empty());
}

}  // namespace
}  // namespace h2push::browser
