// HPACK header compression (RFC 7541).
//
// Full implementation: prefix integer coding, the 61-entry static table, a
// size-bounded FIFO dynamic table, Huffman string literals, and dynamic
// table size updates. Encoder policy mirrors common server behaviour:
// indexed representation on exact match, literal-with-incremental-indexing
// otherwise, Huffman whenever it shortens the literal.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/message.h"
#include "util/expected.h"

namespace h2push::h2 {

/// Append the HPACK prefix-integer encoding of `value` with an
/// `prefix_bits`-bit prefix; `first_byte_flags` holds the upper flag bits.
void hpack_encode_int(std::uint64_t value, int prefix_bits,
                      std::uint8_t first_byte_flags,
                      std::vector<std::uint8_t>& out);

/// Decode a prefix integer starting at `pos`; advances `pos` past it.
util::Expected<std::uint64_t, std::string> hpack_decode_int(
    std::span<const std::uint8_t> in, std::size_t& pos, int prefix_bits);

// Read-only access to the RFC 7541 Appendix A static table, for tooling
// (e.g. the structure-aware fuzz generators) that builds header blocks with
// explicit representation choices instead of the encoder's fixed policy.

/// Number of static-table entries (61).
std::size_t hpack_static_table_size() noexcept;

/// Entry at 1-based HPACK `index` in [1, hpack_static_table_size()].
std::pair<std::string_view, std::string_view> hpack_static_at(
    std::size_t index);

/// 1-based index of the exact match, or 0 if absent; `name_only_out`
/// receives the first name-only match (or 0).
std::size_t hpack_static_find(const std::string& name,
                              const std::string& value,
                              std::size_t& name_only_out);

/// Shared dynamic-table logic (RFC 7541 §4): FIFO with 32-byte-per-entry
/// overhead accounting, evicting from the oldest end.
class HpackDynamicTable {
 public:
  explicit HpackDynamicTable(std::size_t max_size = 4096)
      : max_size_(max_size) {}

  /// Insert a copy of the field as the newest entry.
  void add(std::string_view name, std::string_view value);
  void set_max_size(std::size_t max);

  std::size_t entry_count() const noexcept { return entries_.size(); }
  std::size_t size() const noexcept { return size_; }
  std::size_t max_size() const noexcept { return max_size_; }

  /// index is 0-based from the newest entry.
  const http::Header& at(std::size_t index) const { return entries_[index]; }

  /// Returns 0-based index of exact match, or npos; `name_only_out` receives
  /// the first name-only match if any.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(const std::string& name, const std::string& value,
                   std::size_t& name_only_out) const;

 private:
  void evict_to(std::size_t limit);

  std::deque<http::Header> entries_;  // front = newest
  std::size_t size_ = 0;
  std::size_t max_size_;
};

class HpackEncoder {
 public:
  explicit HpackEncoder(std::size_t table_size = 4096)
      : table_(table_size) {}

  /// Encode a header block. `use_huffman` controls string literals.
  std::vector<std::uint8_t> encode(const http::HeaderBlock& block,
                                   bool use_huffman = true);

  /// Encode into a caller-owned buffer (cleared first). Reusing one buffer
  /// per connection keeps the encode path allocation-free once warm.
  void encode_into(const http::HeaderBlock& block,
                   std::vector<std::uint8_t>& out, bool use_huffman = true);

  /// Emit a dynamic table size update at the start of the next block.
  void set_table_size(std::size_t max);

  const HpackDynamicTable& table() const noexcept { return table_; }

 private:
  void encode_string(const std::string& s, bool use_huffman,
                     std::vector<std::uint8_t>& out);

  HpackDynamicTable table_;
  bool pending_size_update_ = false;
  std::size_t pending_size_ = 0;
};

class HpackDecoder {
 public:
  explicit HpackDecoder(std::size_t table_size = 4096)
      : table_(table_size) {}

  /// Decode a header block into a fresh block.
  util::Expected<http::HeaderBlock, std::string> decode(
      std::span<const std::uint8_t> input);

  /// Decode a header block into `out`, building each field once over the
  /// storage `out` already holds, so a caller reusing one block allocates
  /// only for fields longer than it held before. The dynamic table copies
  /// the built field. Returns the error message, or nullptr on success
  /// (`out` is then the block; on failure its contents are unspecified).
  const char* decode_into(std::span<const std::uint8_t> input,
                          http::HeaderBlock& out);

  /// Upper bound for table size updates signalled via SETTINGS.
  void set_max_table_size(std::size_t max) { settings_max_ = max; }

  const HpackDynamicTable& table() const noexcept { return table_; }

 private:
  struct FieldView {
    std::string_view name;
    std::string_view value;
  };
  /// The static or dynamic entry at HPACK `index`, by view: valid until
  /// the dynamic table next changes.
  util::Expected<FieldView, const char*> lookup(std::uint64_t index) const;
  /// Append the string literal at `pos` to `out`; advances `pos`. Returns
  /// the error message, or nullptr on success.
  static const char* decode_string(std::span<const std::uint8_t> in,
                                   std::size_t& pos, std::string& out);

  HpackDynamicTable table_;
  std::size_t settings_max_ = 4096;
};

}  // namespace h2push::h2
