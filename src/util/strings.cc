#include "util/strings.h"

#include <cctype>
#include <cstdio>

namespace h2push::util {

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  FieldSplitter fields(s, delim);
  for (std::string_view f; fields.next(f);) out.push_back(f);
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool lower_equals(std::string_view s, std::string_view lower) noexcept {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) !=
        static_cast<unsigned char>(lower[i])) {
      return false;
    }
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string human_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

}  // namespace h2push::util
