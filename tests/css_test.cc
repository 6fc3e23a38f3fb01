// CSS parser contracts: the parse of generated and hand-written quirk
// sheets reproduces a recorded digest over every field the object model
// exposes, and a parse allocates a fixed number of blocks however many
// rules the sheet has.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "alloc_counter.h"  // Css.ParseAllocationsDoNotGrowWithRules
#include "browser/css.h"
#include "web/corpus.h"

namespace h2push::browser {
namespace {

/// FNV-1a over length-prefixed fields, so adjacent fields cannot trade
/// bytes without changing the digest.
class FieldHasher {
 public:
  void add(std::string_view s) {
    add_count(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Tags and properties match case-insensitively: hash them folded.
  void add_lower(std::string_view s) {
    add_count(s.size());
    for (const char c : s) {
      byte(static_cast<unsigned char>(
          std::tolower(static_cast<unsigned char>(c))));
    }
  }
  void add_count(std::size_t n) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(n >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_sheet(std::string_view text, FieldHasher& h) {
  const auto sheet = parse_css(text);
  h.add_count(sheet.rules.size());
  for (const auto& rule : sheet.rules) {
    h.add(rule.text);
    h.add_count(rule.selectors.size());
    for (const auto& sel : rule.selectors) {
      h.add(sel.text);
      h.add_count(sel.parts.size());
      for (const auto& part : sel.parts) {
        h.add_lower(part.tag);
        h.add_count(part.classes.size());
        for (const auto& cls : part.classes) h.add(cls);
        h.add(part.id);
      }
    }
    h.add_count(rule.declarations.size());
    for (const auto& d : rule.declarations) {
      h.add_lower(d.property);
      h.add(d.value);
    }
    h.add(rule.font_family());
    h.add_count(rule.urls().size());
    for (const auto& url : rule.urls()) h.add(url);
  }
  h.add_count(sheet.font_faces.size());
  for (const auto& face : sheet.font_faces) {
    h.add(face.family);
    h.add(face.url);
    h.add(face.text);
  }
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Every quirk the parser has to keep: mixed-case tags and properties,
// pseudo-classes (the tag ends up as the pseudo-class name), an empty '.',
// a repeated '#', '>' and '*', stray '}', quoted and half-quoted families,
// a case-sensitive "url(", @charset/@import swallowing the next selector,
// nested @media holding rules and an @font-face, an upper-case @MEDIA
// (treated as an ordinary at-rule), two `src` in one @font-face, and an
// unterminated rule and comment at the end.
constexpr std::string_view kQuirkSheet =
    "@charset \"utf-8\";\n"
    "/* leading comment { with braces } */\n"
    "DIV.Hero > P.lead, A:hover, .a..b, #x#y, *.star, ul  li a.nav:focus "
    "{ COLOR: Red; Font-Family: \"Brand Sans\", serif; background: "
    "URL(/img/upper.png), url( '/img/b.png' ) , url(\"/img/c.png\") ; ; "
    ":novalue; noprop ; }\n"
    "H1 { FONT-FAMILY: 'Quoted' }\n"
    ". { margin: 0 }\n"
    "p { font-family: 'x; }\n"
    "p.q { font-family: ; background: url() url(\"\") }\n"
    "@media screen { @media (min-width: 1px) { .deep { background-image: "
    "url(\"/img/deep.png\"); } } .mid { font-family: Mid; } "
    "@font-face { font-family: \"InMedia\"; src: url(/f/m.woff2); } }\n"
    "@font-face { font-family: \"Brand Sans\"; src: url(/f/a.woff) "
    "format(\"woff\"); SRC: url('/f/b.woff2') format(\"woff2\"); }\n"
    "@font-face { font-family: 'Single'; src: local(x); }\n"
    "@import url(/other.css);\n"
    ".after-import { x: 1 }\n"
    "@MEDIA print { .upper-media { y: 2 } }\n"
    ".tabs\ta\nb , , .c > > .d { z: 3 }\n"
    "}} .stray { w: 4 }\n"
    ".unterminated { color: blue;\n"
    "/* unterminated comment";

// Recorded with the string-per-field parser this model replaced.
constexpr std::string_view kQuirkDigest = "77df98ca306cbdfe";
constexpr std::string_view kPopulationDigest = "d822381395ae8fc2";

TEST(Css, QuirkSheetAndEveryPrefixParseAsRecorded) {
  // Every prefix is a sheet cut short somewhere: an unterminated rule,
  // comment, @media or selector at each position.
  FieldHasher h;
  for (std::size_t n = 0; n <= kQuirkSheet.size(); ++n) {
    hash_sheet(kQuirkSheet.substr(0, n), h);
  }
  EXPECT_EQ(hex(h.value()), kQuirkDigest);
}

TEST(Css, GeneratedSheetsParseAsRecorded) {
  const auto sites =
      web::generate_population(web::PopulationProfile::random100(), 50, 7);
  FieldHasher h;
  std::size_t sheets = 0;
  std::size_t allocations = 0;
  for (const auto& site : sites) {
    for (const auto& r : site.plan.resources) {
      if (r.type != http::ResourceType::kCss) continue;
      const auto* exchange = site.store->find(r.host, r.path);
      ASSERT_NE(exchange, nullptr) << r.url();
      ASSERT_TRUE(exchange->body) << r.url();
      const std::size_t before = test_allocation_count();
      hash_sheet(*exchange->body, h);
      allocations += test_allocation_count() - before;
      ++sheets;
    }
  }
  EXPECT_GT(sheets, 50u);
  EXPECT_EQ(hex(h.value()), kPopulationDigest);
  std::printf("[ info ] %zu sheets, %zu allocations per parse\n", sheets,
              allocations / sheets);
}

TEST(Css, ViewsSurviveAMove) {
  // A text short enough for a std::string's inline buffer: a copy kept
  // there would move with the sheet and leave the views behind.
  Stylesheet moved = parse_css(".a{b:c}");
  Stylesheet sheet = std::move(moved);
  moved = parse_css("#zz{y:w}");
  ASSERT_EQ(sheet.rules.size(), 1u);
  EXPECT_EQ(sheet.rules[0].text, ".a{b:c}");
  EXPECT_EQ(sheet.rules[0].selectors[0].parts[0].classes[0], "a");
  EXPECT_EQ(sheet.rules[0].declarations[0].value, "c");
}

TEST(Css, TagsAndPropertiesMatchAsIfLowercased) {
  const auto sheet = parse_css("DIV > P.Lead { FONT-FAMILY: Brand, serif }");
  ASSERT_EQ(sheet.rules.size(), 1u);
  const CssRule& rule = sheet.rules[0];
  EXPECT_EQ(rule.font_family(), "Brand");
  EXPECT_TRUE(
      matches(rule, ElementPath{{{"div", {}, ""}, {"p", {"Lead"}, ""}}}));
  // Classes stay case-sensitive, and only the selector side is folded.
  EXPECT_FALSE(
      matches(rule, ElementPath{{{"div", {}, ""}, {"p", {"lead"}, ""}}}));
  EXPECT_FALSE(
      matches(rule, ElementPath{{{"DIV", {}, ""}, {"P", {"Lead"}, ""}}}));
}

TEST(Css, ArrayBoundsHoldOnSheetsThatReachThem) {
  // Each sheet fills one array exactly to the bound its bytes give; a
  // parse that outgrows a bound throws instead of moving the array.
  struct Case {
    std::string_view text;
    std::size_t selectors, compounds, classes, declarations, urls;
  };
  for (const Case& c : {
           Case{"a,b,c{x:y}", 3, 3, 0, 1, 0},      // commas + 1
           Case{"a b c{x:y}", 1, 3, 0, 1, 0},      // spaces + commas + 1
           Case{".a.b.c{x:y}", 1, 1, 3, 1, 0},     // dots
           Case{"x{a:1;b:2;c:3}", 1, 1, 0, 3, 0},  // semicolons + 1
           Case{"x{b:url(a)url(b)url(c)}", 1, 1, 0, 1, 3},  // parentheses
       }) {
    SCOPED_TRACE(std::string(c.text));
    const auto sheet = parse_css(c.text);
    ASSERT_EQ(sheet.rules.size(), 1u);
    const CssRule& rule = sheet.rules[0];
    std::size_t compounds = 0, classes = 0;
    for (const auto& sel : rule.selectors) {
      compounds += sel.parts.size();
      for (const auto& part : sel.parts) classes += part.classes.size();
    }
    EXPECT_EQ(rule.selectors.size(), c.selectors);
    EXPECT_EQ(compounds, c.compounds);
    EXPECT_EQ(classes, c.classes);
    EXPECT_EQ(rule.declarations.size(), c.declarations);
    EXPECT_EQ(rule.urls().size(), c.urls);
  }
}

/// A sheet shaped like the generated ones, `rules` rule sets long: each
/// has two selectors, classes, an id, four declarations and a url().
std::string sheet_with_rules(int rules) {
  std::string text =
      "/* generated */\n@font-face { font-family: \"Brand\"; src: "
      "url(/f/brand.woff2) format(\"woff2\"); }\n";
  for (int i = 0; i < rules; ++i) {
    const std::string n = std::to_string(i);
    text += ".x" + n + ", div.hero#m" + n + " p.t" + n +
            " { margin: 4px; padding: 2px; font-family: Brand, serif; "
            "background: url(/img/" +
            n + ".png); }\n";
  }
  text += "@media print { .p { color: #000; } }\n";
  return text;
}

TEST(Css, ParseAllocationsDoNotGrowWithRules) {
  // The sheet owns one copy of its text and one array per kind of
  // record, so the count is the same for any number of rules.
  constexpr std::size_t kBound = 64;
  for (const int rules : {200, 2000}) {
    const std::string text = sheet_with_rules(rules);
    const std::size_t before = test_allocation_count();
    {
      const auto sheet = parse_css(text);
      ASSERT_EQ(sheet.rules.size(), static_cast<std::size_t>(rules) + 1);
      ASSERT_EQ(sheet.font_faces.size(), 1u);
    }
    const std::size_t allocations = test_allocation_count() - before;
    EXPECT_LE(allocations, kBound) << rules << " rules";
    std::printf("[ info ] %d rules: %zu allocations\n", rules, allocations);
  }
}

}  // namespace
}  // namespace h2push::browser
