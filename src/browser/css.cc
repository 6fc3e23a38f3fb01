#include "browser/css.h"

#include <cctype>

#include "util/strings.h"

namespace h2push::browser {
namespace {

std::string_view strip(std::string_view s) { return util::trim(s); }

CompoundSelector parse_compound(std::string_view s) {
  CompoundSelector out;
  std::size_t i = 0;
  auto take_name = [&]() {
    const std::size_t start = i;
    while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                            s[i] == '-' || s[i] == '_'))
      ++i;
    return std::string(s.substr(start, i - start));
  };
  while (i < s.size()) {
    if (s[i] == '.') {
      ++i;
      out.classes.push_back(take_name());
    } else if (s[i] == '#') {
      ++i;
      out.id = take_name();
    } else if (s[i] == '*') {
      ++i;
    } else {
      out.tag = util::to_lower(take_name());
      if (out.tag.empty()) ++i;  // skip unsupported char (e.g. ':')
    }
  }
  return out;
}

Selector parse_selector(std::string_view s) {
  Selector sel;
  sel.text = std::string(strip(s));
  for (auto part : util::split(sel.text, ' ')) {
    part = strip(part);
    if (part.empty() || part == ">") continue;  // treat child as descendant
    sel.parts.push_back(parse_compound(part));
  }
  return sel;
}

std::vector<Declaration> parse_declarations(std::string_view body) {
  std::vector<Declaration> out;
  for (auto decl : util::split(body, ';')) {
    const std::size_t colon = decl.find(':');
    if (colon == std::string_view::npos) continue;
    Declaration d;
    d.property = util::to_lower(strip(decl.substr(0, colon)));
    d.value = std::string(strip(decl.substr(colon + 1)));
    if (!d.property.empty()) out.push_back(std::move(d));
  }
  return out;
}

std::vector<std::string> extract_urls(std::string_view value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t u = value.find("url(", pos);
    if (u == std::string_view::npos) break;
    const std::size_t close = value.find(')', u + 4);
    if (close == std::string_view::npos) break;
    std::string_view inner = strip(value.substr(u + 4, close - u - 4));
    if (!inner.empty() && (inner.front() == '"' || inner.front() == '\'')) {
      inner.remove_prefix(1);
    }
    if (!inner.empty() && (inner.back() == '"' || inner.back() == '\'')) {
      inner.remove_suffix(1);
    }
    if (!inner.empty()) out.emplace_back(inner);
    pos = close + 1;
  }
  return out;
}

std::string font_family_of(const std::vector<Declaration>& declarations) {
  for (const auto& d : declarations) {
    if (d.property == "font-family") {
      // First family in the list, unquoted.
      auto fams = util::split(d.value, ',');
      if (fams.empty()) return {};
      std::string_view f = strip(fams.front());
      if (!f.empty() && (f.front() == '"' || f.front() == '\'')) {
        f.remove_prefix(1);
        if (!f.empty()) f.remove_suffix(1);
      }
      return std::string(f);
    }
  }
  return {};
}

std::vector<std::string> urls_of(const std::vector<Declaration>& declarations) {
  std::vector<std::string> out;
  for (const auto& d : declarations) {
    for (auto& u : extract_urls(d.value)) out.push_back(std::move(u));
  }
  return out;
}

}  // namespace

std::vector<std::string> Stylesheet::resource_urls() const {
  std::vector<std::string> out;
  for (const auto& r : rules) {
    out.insert(out.end(), r.urls().begin(), r.urls().end());
  }
  for (const auto& f : font_faces) {
    if (!f.url.empty()) out.push_back(f.url);
  }
  return out;
}

std::optional<std::string> Stylesheet::font_url(
    std::string_view family) const {
  for (const auto& f : font_faces) {
    if (f.family == family) return f.url;
  }
  return std::nullopt;
}

Stylesheet parse_css(std::string_view text) {
  Stylesheet sheet;
  std::size_t i = 0;
  while (i < text.size()) {
    // Skip whitespace and comments.
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
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
    const std::string_view prelude_probe = strip(text.substr(i, open - i));
    std::size_t close;
    if (util::starts_with(prelude_probe, "@media")) {
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
    const std::string_view prelude = strip(text.substr(i, open - i));
    const std::string_view body = text.substr(open + 1, close - open - 1);
    const std::string rule_text(strip(text.substr(i, close - i + 1)));

    if (util::starts_with(prelude, "@font-face")) {
      FontFace face;
      face.text = rule_text;
      for (const auto& d : parse_declarations(body)) {
        if (d.property == "font-family") {
          std::string_view f = strip(d.value);
          if (!f.empty() && (f.front() == '"' || f.front() == '\'')) {
            f.remove_prefix(1);
            if (!f.empty()) f.remove_suffix(1);
          }
          face.family = std::string(f);
        } else if (d.property == "src") {
          auto urls = extract_urls(d.value);
          if (!urls.empty()) face.url = urls.front();
        }
      }
      sheet.font_faces.push_back(std::move(face));
    } else if (util::starts_with(prelude, "@media")) {
      // Parse inner rules recursively; treat all media as applying (our
      // viewport model has no media distinctions).
      auto inner = parse_css(body);
      for (auto& r : inner.rules) sheet.rules.push_back(std::move(r));
      for (auto& f : inner.font_faces) sheet.font_faces.push_back(std::move(f));
    } else if (!prelude.empty() && prelude.front() == '@') {
      // Other at-rules ignored.
    } else {
      CssRule rule;
      rule.text = rule_text;
      for (auto sel : util::split(prelude, ',')) {
        auto parsed = parse_selector(sel);
        if (!parsed.parts.empty()) rule.selectors.push_back(std::move(parsed));
      }
      rule.declarations = parse_declarations(body);
      rule.font_family_ = font_family_of(rule.declarations);
      rule.urls_ = urls_of(rule.declarations);
      if (!rule.selectors.empty()) sheet.rules.push_back(std::move(rule));
    }
    i = close + 1;
  }
  return sheet;
}

namespace {

bool compound_matches(const CompoundSelector& sel,
                      const ElementPath::Entry& el) {
  if (!sel.tag.empty() && sel.tag != el.tag) return false;
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
