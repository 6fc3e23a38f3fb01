// HPACK header compression (RFC 7541).
//
// Full implementation: prefix integer coding, the 61-entry static table, a
// size-bounded FIFO dynamic table, Huffman string literals, and dynamic
// table size updates. Encoder policy mirrors common server behaviour:
// indexed representation on exact match, literal-with-incremental-indexing
// otherwise, Huffman whenever it shortens the literal.
#pragma once

#include <cstdint>
#include <memory>
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
///
/// The entries' bytes live in one flat buffer used as a ring: each entry
/// appends its name and value at the tail, and when the tail runs out the
/// live bytes slide back to the front (at most as many bytes as were
/// appended since the last slide). Buffer and per-entry records grow with
/// the entries actually held, never with the announced maximum, so a table
/// allocates nothing per entry once warm.
///
/// find() runs on a hashed index beside the ring: per hash bucket, the
/// newest entry whose name (or name and value) lands there, and per entry
/// the next older one in its buckets. Entries are numbered by insertion;
/// an evicted one falls out of every chain by comparison with the oldest
/// live number, so eviction deletes nothing from the index.
class HpackDynamicTable {
 public:
  /// An entry by view: valid until the table next changes.
  struct Field {
    std::string_view name;
    std::string_view value;
    bool operator==(const Field&) const = default;
  };

  explicit HpackDynamicTable(std::size_t max_size = 4096)
      : max_size_(max_size) {}

  /// Insert a copy of the field as the newest entry. Neither view may
  /// point into this table.
  void add(std::string_view name, std::string_view value);
  void set_max_size(std::size_t max);

  std::size_t entry_count() const noexcept { return count_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t max_size() const noexcept { return max_size_; }

  /// index is 0-based from the newest entry.
  Field at(std::size_t index) const {
    return field(record(inserted_ - 1 - index));
  }

  /// Returns the 0-based index of the newest exact match, or npos;
  /// `name_only_out` receives the newest entry with the name, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(std::string_view name, std::string_view value,
                   std::size_t& name_only_out) const;

 private:
  struct Record {
    std::size_t offset = 0;  // name bytes, then value bytes, in bytes_
    std::size_t name_len = 0;
    std::size_t value_len = 0;
    std::uint32_t name_hash = 0;   // low bits of the hashes, to skip most
    std::uint32_t field_hash = 0;  // bucket mates without a compare
    // Insertion number + 1 of the next older entry in the same name /
    // field bucket (0: none).
    std::uint64_t name_next = 0;
    std::uint64_t field_next = 0;
  };
  static constexpr std::size_t kBuckets = 64;  // per index; power of two

  const Record& record(std::uint64_t number) const {
    return records_[number & (records_.size() - 1)];
  }
  Field field(const Record& r) const {
    const char* base = bytes_.get() + r.offset;
    return {{base, r.name_len}, {base + r.name_len, r.value_len}};
  }
  /// Insertion number of the oldest live entry.
  std::uint64_t oldest() const noexcept { return inserted_ - count_; }
  /// Make room for `bytes` more at the tail of bytes_ and a new record.
  void reserve_for(std::size_t bytes);
  void evict_to(std::size_t limit);

  std::unique_ptr<char[]> bytes_;
  std::size_t capacity_ = 0;      // of bytes_
  std::size_t tail_ = 0;          // end of the newest entry's bytes
  std::vector<Record> records_;   // ring by insertion number; power of two
  std::vector<std::uint64_t> heads_;  // name buckets, then field buckets
  std::uint64_t inserted_ = 0;    // entries ever inserted
  std::size_t count_ = 0;
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
  using Field = HpackDynamicTable::Field;
  /// The static or dynamic entry at HPACK `index`, by view: valid until
  /// the dynamic table next changes.
  util::Expected<Field, const char*> lookup(std::uint64_t index) const;
  /// Append the string literal at `pos` to `out`; advances `pos`. Returns
  /// the error message, or nullptr on success.
  static const char* decode_string(std::span<const std::uint8_t> in,
                                   std::size_t& pos, std::string& out);

  HpackDynamicTable table_;
  std::size_t settings_max_ = 4096;
};

}  // namespace h2push::h2
