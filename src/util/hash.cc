#include "util/hash.h"

#include <algorithm>
#include <bit>

#include "util/sha256.h"

namespace h2push::util {
namespace {

Hash128 truncate_digest(const std::array<std::uint8_t, 32>& digest) {
  Hash128 out;
  for (int i = 0; i < 8; ++i) out.hi = (out.hi << 8) | digest[i];
  for (int i = 8; i < 16; ++i) out.lo = (out.lo << 8) | digest[i];
  return out;
}

void append_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
  }
}

}  // namespace

std::string Hash128::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : {hi, lo}) {
    for (int i = 15; i >= 0; --i) {
      out.push_back(kDigits[(word >> (i * 4)) & 0xf]);
    }
  }
  return out;
}

void CanonicalHasher::entry(std::string_view name, char type_code,
                            std::string_view payload) {
  // name | 0x1f | type | payload — 0x1f never appears in field names, so
  // distinct names can never produce identical entries.
  std::string e;
  e.reserve(name.size() + 2 + payload.size());
  e.append(name);
  e.push_back('\x1f');
  e.push_back(type_code);
  e.append(payload);
  entries_.push_back(std::move(e));
}

void CanonicalHasher::field(std::string_view name, std::uint64_t v) {
  std::string payload;
  append_u64_le(payload, v);
  entry(name, 'u', payload);
}

void CanonicalHasher::field(std::string_view name, std::int64_t v) {
  std::string payload;
  append_u64_le(payload, static_cast<std::uint64_t>(v));
  entry(name, 'i', payload);
}

void CanonicalHasher::field(std::string_view name, double v) {
  std::string payload;
  append_u64_le(payload, std::bit_cast<std::uint64_t>(v));
  entry(name, 'd', payload);
}

void CanonicalHasher::field(std::string_view name, bool v) {
  entry(name, 'b', v ? "\x01" : std::string_view("\x00", 1));
}

void CanonicalHasher::field(std::string_view name, std::string_view v) {
  entry(name, 's', v);
}

void CanonicalHasher::field(std::string_view name, const Hash128& v) {
  std::string payload;
  append_u64_le(payload, v.hi);
  append_u64_le(payload, v.lo);
  entry(name, 'h', payload);
}

void CanonicalHasher::field(std::string_view name,
                            const std::vector<std::string>& v) {
  // Length-prefixed items: {"ab","c"} cannot collide with {"a","bc"}.
  std::string payload;
  append_u64_le(payload, v.size());
  for (const auto& item : v) {
    append_u64_le(payload, item.size());
    payload.append(item);
  }
  entry(name, 'v', payload);
}

Hash128 CanonicalHasher::finish() const {
  std::vector<std::string> sorted = entries_;
  std::sort(sorted.begin(), sorted.end());
  Sha256 hasher;
  for (const auto& e : sorted) {
    std::string len;
    append_u64_le(len, e.size());
    hasher.update(len);
    hasher.update(e);
  }
  return truncate_digest(hasher.finish());
}

}  // namespace h2push::util
