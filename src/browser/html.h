// Incremental HTML tokenizer.
//
// The browser model parses real markup bytes as they arrive from the
// network, like a streaming browser parser. The tokenizer is deliberately a
// subset of HTML5 (no entities, no CDATA, no script-content escaping
// subtleties) but handles everything the corpus generator emits and
// arbitrary attribute soup robustly. Two independent Tokenizer cursors can
// read the same growing document buffer: the DOM parser (which blocks on
// sync scripts) and the preload scanner (which races ahead to discover
// fetchable resources — Chromium's speculative scanner).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace h2push::browser {

struct HtmlToken {
  enum class Kind : std::uint8_t { kStartTag, kEndTag, kText };
  Kind kind = Kind::kText;
  std::string name;                          // lowercase tag name
  std::map<std::string, std::string> attrs;  // lowercase attribute names
  bool self_closing = false;
  std::string text;          // kText: raw text content (also script bodies)
  std::size_t begin = 0;     // byte offset of the token start
  std::size_t end = 0;       // byte offset one past the token end

  std::string_view attr(std::string_view name_sv) const {
    const auto it = attrs.find(std::string(name_sv));
    return it == attrs.end() ? std::string_view{} : std::string_view(it->second);
  }
  bool has_attr(std::string_view name_sv) const {
    return attrs.count(std::string(name_sv)) != 0;
  }
};

/// A cursor over an externally owned, append-only document buffer.
/// next() returns tokens that are *complete* in the buffer so far; a
/// partially received tag yields nullopt until more bytes arrive.
class HtmlTokenizer {
 public:
  /// A cursor over `doc`, which may grow between next() calls. The
  /// default cursor reads an empty document.
  HtmlTokenizer();
  explicit HtmlTokenizer(const std::string* doc) : doc_(doc) {}

  std::optional<HtmlToken> next();

  std::size_t position() const noexcept { return pos_; }
  /// True when the cursor consumed everything currently buffered.
  bool at_end() const noexcept { return pos_ >= doc_->size(); }

 private:
  std::optional<HtmlToken> lex_tag();

  const std::string* doc_;
  std::size_t pos_ = 0;
};

}  // namespace h2push::browser
