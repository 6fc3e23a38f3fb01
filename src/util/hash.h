// Canonical 128-bit content hashing for the run-memoization cache
// (core/memo.h).
//
// A cache key must be a *canonical* function of semantics, not of code
// shape: re-ordering the statements that build a key, or adding a new
// config knob at its pinned default value, must not change the key of any
// existing configuration — otherwise every refactor silently invalidates
// the persistent store. CanonicalHasher therefore collects named, typed
// fields, sorts them by name, and hashes the sorted sequence with SHA-256
// (truncated to 128 bits — collision probability is negligible at any
// realistic cache size, and a collision only ever returns a wrong cached
// result, so we use a cryptographic hash rather than a mixer).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace h2push::util {

struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;
  auto operator<=>(const Hash128&) const = default;

  /// 32 lowercase hex chars, hi first.
  std::string hex() const;
};

/// For unordered_map keys; the SHA-256 bits are already uniform.
struct Hash128Hasher {
  std::size_t operator()(const Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.lo);
  }
};

class CanonicalHasher {
 public:
  /// Add a named field. Field names must be unique per hasher; emission
  /// order is irrelevant (fields are sorted by name before hashing), and
  /// each value is tagged with a type code so e.g. the integer 0 and the
  /// empty string cannot collide.
  void field(std::string_view name, std::uint64_t v);
  void field(std::string_view name, std::int64_t v);
  void field(std::string_view name, double v);  // hashed by bit pattern
  void field(std::string_view name, bool v);
  void field(std::string_view name, std::string_view v);
  void field(std::string_view name, const char* v) {
    field(name, std::string_view(v));
  }
  void field(std::string_view name, const Hash128& v);
  void field(std::string_view name, const std::vector<std::string>& v);

  /// Add the field only when it differs from its pinned default. Pinned
  /// defaults are part of the cache-format contract (bump the format
  /// version to change one): a knob introduced later, hashed through this
  /// with its pinned default, leaves every pre-existing key unchanged.
  template <typename T, typename D>
  void field_default(std::string_view name, const T& v, const D& dflt) {
    if (!(v == dflt)) field(name, v);
  }

  /// Sort the collected fields by name and hash them. The hasher may be
  /// reused afterwards (finish does not consume the fields).
  Hash128 finish() const;

 private:
  void entry(std::string_view name, char type_code, std::string_view payload);

  std::vector<std::string> entries_;
};

}  // namespace h2push::util
