#include "util/strings.h"

#include <cctype>

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

}  // namespace h2push::util
