#include "browser/css.h"

#include <cstring>
#include <stdexcept>

#include "util/strings.h"

namespace h2push::browser {
namespace {

std::string_view strip(std::string_view s) { return util::trim(s); }

/// [A-Za-z0-9_-]: std::isalnum of the C locale, plus '-' and '_'.
constexpr bool is_name_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '-' || c == '_';
}

std::string_view unquote(std::string_view f) {
  if (!f.empty() && (f.front() == '"' || f.front() == '\'')) {
    f.remove_prefix(1);
    if (!f.empty()) f.remove_suffix(1);
  }
  return f;
}

/// Calls `f(url)` for each url(...) in a declaration value; stops early
/// once `f` returns false.
template <class F>
void for_each_url(std::string_view value, F&& f) {
  std::size_t pos = 0;
  while (true) {
    const std::size_t u = value.find("url(", pos);
    if (u == std::string_view::npos) return;
    const std::size_t close = value.find(')', u + 4);
    if (close == std::string_view::npos) return;
    std::string_view inner = strip(value.substr(u + 4, close - u - 4));
    if (!inner.empty() && (inner.front() == '"' || inner.front() == '\'')) {
      inner.remove_prefix(1);
    }
    if (!inner.empty() && (inner.back() == '"' || inner.back() == '\'')) {
      inner.remove_suffix(1);
    }
    if (!inner.empty() && !f(inner)) return;
    pos = close + 1;
  }
}

/// Calls `f(property, value)` for each declaration with a non-empty
/// property, stripped.
template <class F>
void for_each_declaration(std::string_view body, F&& f) {
  util::FieldSplitter decls(body, ';');
  for (std::string_view decl; decls.next(decl);) {
    const std::size_t colon = decl.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view property = strip(decl.substr(0, colon));
    if (!property.empty()) f(property, strip(decl.substr(colon + 1)));
  }
}

/// One top-level block: a rule set or an @font-face.
struct Block {
  bool font_face = false;
  std::string_view prelude;
  std::string_view body;
  std::string_view text;  // the whole block, stripped
};

/// Appends the blocks of `text` in order. @media bodies are walked as
/// blocks of their own; other at-rules are skipped.
void collect_blocks(std::string_view text, std::vector<Block>& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    // Skip whitespace and comments.
    if (util::is_space(text[i])) {
      ++i;
      continue;
    }
    if (text.compare(i, 2, "/*") == 0) {
      const std::size_t close = text.find("*/", i + 2);
      if (close == std::string_view::npos) break;
      i = close + 2;
      continue;
    }
    const std::size_t open = text.find('{', i);
    if (open == std::string_view::npos) break;
    const std::string_view prelude = strip(text.substr(i, open - i));
    const bool media = util::starts_with(prelude, "@media");
    std::size_t close;
    if (media) {
      // Nested block: find the matching close brace by depth.
      int depth = 1;
      close = open + 1;
      while (close < text.size() && depth > 0) {
        if (text[close] == '{') ++depth;
        if (text[close] == '}') --depth;
        if (depth == 0) break;
        ++close;
      }
      if (close >= text.size()) break;
    } else {
      close = text.find('}', open + 1);
      if (close == std::string_view::npos) break;
    }
    const std::string_view body = text.substr(open + 1, close - open - 1);
    const bool font_face = util::starts_with(prelude, "@font-face");
    if (media) {
      // Treat all media as applying (our viewport model has no media
      // distinctions): its rules join the sheet in place.
      collect_blocks(body, out);
    } else if (font_face || prelude.empty() || prelude.front() != '@') {
      out.push_back(
          {font_face, prelude, body, strip(text.substr(i, close - i + 1))});
    }  // other at-rules ignored
    i = close + 1;
  }
}

std::size_t count_of(std::string_view s, char c) {
  std::size_t n = 0;
  for (const char x : s) n += x == c;
  return n;
}

}  // namespace

bool CompoundSelector::tag_is(std::string_view lower) const noexcept {
  return util::lower_equals(tag, lower);
}

// One walk finds the blocks, which bounds every array; the arrays are then
// reserved and filled without reallocating, so spans can be handed out as
// they are filled. The bounds:
//   blocks       <= '{' in the text (each block opens one)
//   selectors    <= commas in its prelude + 1, per rule set (one per
//                   ','-field)
//   compounds    <= spaces + commas in its prelude + 1, per rule set (one
//                   per ' '-field of each selector)
//   classes      <= '.' in the preludes
//   declarations <= ';' in the text + one per block
//   urls         <= '(' in the text (each ends a distinct "url(")
class CssParser {
 public:
  static Stylesheet parse(std::string_view source) {
    Stylesheet sheet;
    if (!source.empty()) {
      sheet.text_ = std::make_unique_for_overwrite<char[]>(source.size());
      std::memcpy(sheet.text_.get(), source.data(), source.size());
    }
    const std::string_view text(sheet.text_.get(), source.size());
    std::vector<Block> blocks;
    blocks.reserve(count_of(text, '{'));
    collect_blocks(text, blocks);

    std::size_t faces = 0, selectors = 0, compounds = 0, classes = 0;
    for (const Block& b : blocks) {
      if (b.font_face) {
        ++faces;
        continue;
      }
      std::size_t commas = 0, spaces = 0, dots = 0;
      for (const char c : b.prelude) {
        commas += c == ',';
        spaces += c == ' ';
        dots += c == '.';
      }
      selectors += commas + 1;
      compounds += spaces + commas + 1;
      classes += dots;
    }
    sheet.rules.reserve(blocks.size() - faces);
    sheet.font_faces.reserve(faces);
    sheet.selectors_.reserve(selectors);
    sheet.compounds_.reserve(compounds);
    sheet.classes_.reserve(classes);
    sheet.declarations_.reserve(count_of(text, ';') + blocks.size());
    sheet.urls_.reserve(count_of(text, '('));

    CssParser parser(sheet);
    for (const Block& b : blocks) {
      if (b.font_face) {
        parser.add_font_face(b);
      } else {
        parser.add_rule(b);
      }
    }
    return sheet;
  }

 private:
  explicit CssParser(Stylesheet& sheet) : sheet_(sheet) {}

  /// Appends within the reserved capacity, so earlier spans stay valid.
  /// A bound that failed to hold would leave them dangling: fail loudly.
  template <class T>
  static void append(std::vector<T>& v, T value) {
    if (v.size() == v.capacity()) {
      throw std::logic_error("parse_css: array bound exceeded");
    }
    v.push_back(value);
  }

  /// The elements of `v` from index `first` on.
  template <class T>
  static std::span<const T> tail(const std::vector<T>& v, std::size_t first) {
    return std::span<const T>(v).subspan(first);
  }

  void add_font_face(const Block& b) {
    FontFace face;
    face.text = b.text;
    for_each_declaration(b.body, [&](std::string_view property,
                                     std::string_view value) {
      if (util::lower_equals(property, "font-family")) {
        face.family = unquote(value);
      } else if (util::lower_equals(property, "src")) {
        for_each_url(value, [&](std::string_view url) {
          face.url = url;
          return false;  // the first url of each src
        });
      }
    });
    append(sheet_.font_faces, face);
  }

  void add_rule(const Block& b) {
    const std::size_t first_selector = sheet_.selectors_.size();
    util::FieldSplitter fields(b.prelude, ',');
    for (std::string_view field; fields.next(field);) add_selector(field);
    if (sheet_.selectors_.size() == first_selector) return;

    CssRule rule;
    rule.text = b.text;
    rule.selectors = tail(sheet_.selectors_, first_selector);
    const std::size_t first_declaration = sheet_.declarations_.size();
    const std::size_t first_url = sheet_.urls_.size();
    bool have_family = false;
    for_each_declaration(b.body, [&](std::string_view property,
                                     std::string_view value) {
      append(sheet_.declarations_, Declaration{property, value});
      if (!have_family && util::lower_equals(property, "font-family")) {
        // First family in the list, unquoted.
        have_family = true;
        std::string_view family;
        util::FieldSplitter(value, ',').next(family);
        rule.font_family_ = unquote(strip(family));
      }
      for_each_url(value, [&](std::string_view url) {
        append(sheet_.urls_, url);
        return true;
      });
    });
    rule.declarations = tail(sheet_.declarations_, first_declaration);
    rule.urls_ = tail(sheet_.urls_, first_url);
    append(sheet_.rules, rule);
  }

  void add_selector(std::string_view field) {
    const std::string_view text = strip(field);
    const std::size_t first_part = sheet_.compounds_.size();
    util::FieldSplitter pieces(text, ' ');
    for (std::string_view piece; pieces.next(piece);) {
      piece = strip(piece);
      if (piece.empty() || piece == ">") continue;  // child as descendant
      append(sheet_.compounds_, parse_compound(piece));
    }
    if (sheet_.compounds_.size() == first_part) return;
    append(sheet_.selectors_,
           Selector{tail(sheet_.compounds_, first_part), text});
  }

  CompoundSelector parse_compound(std::string_view s) {
    CompoundSelector out;
    const std::size_t first_class = sheet_.classes_.size();
    std::size_t i = 0;
    auto take_name = [&]() {
      const std::size_t start = i;
      while (i < s.size() && is_name_char(s[i])) ++i;
      return s.substr(start, i - start);
    };
    while (i < s.size()) {
      if (s[i] == '.') {
        ++i;
        append(sheet_.classes_, take_name());
      } else if (s[i] == '#') {
        ++i;
        out.id = take_name();
      } else if (s[i] == '*') {
        ++i;
      } else {
        out.tag = take_name();
        if (out.tag.empty()) ++i;  // skip unsupported char (e.g. ':')
      }
    }
    out.classes = tail(sheet_.classes_, first_class);
    return out;
  }

  Stylesheet& sheet_;
};

std::vector<std::string_view> Stylesheet::resource_urls() const {
  std::vector<std::string_view> out(urls_.begin(), urls_.end());
  for (const auto& f : font_faces) {
    if (!f.url.empty()) out.push_back(f.url);
  }
  return out;
}

std::optional<std::string_view> Stylesheet::font_url(
    std::string_view family) const {
  for (const auto& f : font_faces) {
    if (f.family == family) return f.url;
  }
  return std::nullopt;
}

Stylesheet parse_css(std::string_view text) { return CssParser::parse(text); }

namespace {

bool compound_matches(const CompoundSelector& sel,
                      const ElementPath::Entry& el) {
  if (!sel.tag.empty() && !sel.tag_is(el.tag)) return false;
  if (!sel.id.empty() && sel.id != el.id) return false;
  for (const auto& cls : sel.classes) {
    bool found = false;
    for (const auto& have : el.classes) {
      if (have == cls) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

bool matches(const Selector& sel, const ElementPath& path) {
  if (sel.parts.empty() || path.chain.empty()) return false;
  // The last compound must match the element itself; earlier compounds must
  // match ancestors in order.
  if (!compound_matches(sel.parts.back(), path.chain.back())) return false;
  std::size_t part = sel.parts.size() - 1;
  std::size_t node = path.chain.size() - 1;
  while (part > 0) {
    if (node == 0) return false;
    --node;
    if (compound_matches(sel.parts[part - 1], path.chain[node])) {
      --part;
    }
  }
  return part == 0;
}

bool matches(const CssRule& rule, const ElementPath& path) {
  for (const auto& sel : rule.selectors) {
    if (matches(sel, path)) return true;
  }
  return false;
}

}  // namespace h2push::browser
