// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace h2push::util {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// split() without the vector: yields the same fields, one per next().
///
///   FieldSplitter fields(s, ',');
///   for (std::string_view f; fields.next(f);) ...
class FieldSplitter {
 public:
  FieldSplitter(std::string_view s, char delim) noexcept
      : rest_(s), delim_(delim) {}
  /// Stores the next field in `field`; false once every field is out.
  bool next(std::string_view& field) noexcept {
    if (done_) return false;
    const std::size_t pos = rest_.find(delim_);
    if (pos == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, pos);
      rest_.remove_prefix(pos + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
  char delim_;
  bool done_ = false;
};

/// ASCII lowercase copy (header names, hostnames).
std::string to_lower(std::string_view s);

/// to_lower(s) == lower, without the copy.
bool lower_equals(std::string_view s, std::string_view lower) noexcept;

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// std::isspace in the C locale (the program never sets another), inline:
/// parsers call it per byte.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Trim ASCII whitespace from both ends.
constexpr std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace h2push::util
