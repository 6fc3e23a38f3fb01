// CSS object model (simplified).
//
// Parses real stylesheet text into rules with selectors and declarations.
// The subset covers what the corpus generator emits and what the paper's
// mechanisms need:
//   - rule sets with compound selectors (tag, .class, #id) and descendant
//     combinators,
//   - @font-face blocks (font files are "hidden" resources discovered only
//     after CSS parse — paper §4.3 s1),
//   - url(...) references in declarations (background images),
//   - font-family declarations linking elements to web fonts.
// Selector matching against an element ancestor chain powers the critical
// CSS extraction (the paper's penthouse step) in core/critical_css.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace h2push::browser {

// Storage: a Stylesheet owns one heap copy of the sheet text, and every
// string below is a view into it. Selectors, compounds, classes,
// declarations and url()s live in one sheet-wide array each, and the spans
// below point into those arrays. Everything therefore stays valid for as
// long as the Stylesheet that produced it, moves included, and no longer.
// Tags and properties keep the case they were written in; they match
// case-insensitively (the C locale's std::tolower folds them before a
// compare: CompoundSelector::tag_is, util::lower_equals).

/// One compound selector part: "div.hero#main" → tag=div, classes={hero},
/// id=main. Empty fields are wildcards.
struct CompoundSelector {
  std::string_view tag;  // as written; compare with tag_is()
  std::span<const std::string_view> classes;
  std::string_view id;

  /// Does the tag, lowercased, equal `lower`?
  bool tag_is(std::string_view lower) const noexcept;
};

/// A full selector: descendant chain of compounds, e.g. ".nav a".
struct Selector {
  std::span<const CompoundSelector> parts;  // outermost ancestor first
  std::string_view text;                    // original serialization
};

struct Declaration {
  std::string_view property;  // as written; compare with util::lower_equals
  std::string_view value;
};

class CssParser;

struct CssRule {
  std::span<const Selector> selectors;
  std::span<const Declaration> declarations;
  std::string_view text;  // original rule text (for critical-CSS reassembly)

  /// First font-family of the first font-family declaration, unquoted;
  /// empty if none.
  std::string_view font_family() const noexcept { return font_family_; }
  /// url(...) references in the declarations (background images).
  std::span<const std::string_view> urls() const noexcept { return urls_; }

 private:
  friend class CssParser;
  // Derived from `declarations` once, when the rule is parsed: a shared
  // sheet is read by every load of its site.
  std::string_view font_family_;
  std::span<const std::string_view> urls_;
};

struct FontFace {
  std::string_view family;
  std::string_view url;
  std::string_view text;  // original @font-face block
};

/// Move-only: the views and spans of its rules point into storage the
/// sheet owns, which a move hands over without relocating.
struct Stylesheet {
  Stylesheet() = default;
  Stylesheet(Stylesheet&&) noexcept = default;
  Stylesheet& operator=(Stylesheet&&) noexcept = default;
  Stylesheet(const Stylesheet&) = delete;
  Stylesheet& operator=(const Stylesheet&) = delete;

  std::vector<CssRule> rules;
  std::vector<FontFace> font_faces;

  /// All url() references: background images + font files.
  std::vector<std::string_view> resource_urls() const;
  /// @font-face url for a family, if any.
  std::optional<std::string_view> font_url(std::string_view family) const;

 private:
  friend class CssParser;
  // Not a std::string: a short string's bytes live inside the object and
  // would move with it, leaving every view behind.
  std::unique_ptr<char[]> text_;
  std::vector<Selector> selectors_;
  std::vector<CompoundSelector> compounds_;
  std::vector<std::string_view> classes_;
  std::vector<Declaration> declarations_;
  std::vector<std::string_view> urls_;
};

Stylesheet parse_css(std::string_view text);

/// An element as seen during layout: tag + classes + id, with ancestors.
struct ElementPath {
  struct Entry {
    std::string tag;
    std::vector<std::string> classes;
    std::string id;
  };
  std::vector<Entry> chain;  // outermost first, element itself last
};

/// CSS descendant matching of `sel` against the element path.
bool matches(const Selector& sel, const ElementPath& path);

/// Does any selector of the rule match?
bool matches(const CssRule& rule, const ElementPath& path);

}  // namespace h2push::browser
