#include "h2/hpack.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <memory>

#include "h2/hpack_huffman.h"

namespace h2push::h2 {
namespace {

// RFC 7541 Appendix A: the static table, 1-based indices 1..61.
constexpr std::array<std::pair<std::string_view, std::string_view>, 61>
    kStaticTable = {{
        {":authority", ""},
        {":method", "GET"},
        {":method", "POST"},
        {":path", "/"},
        {":path", "/index.html"},
        {":scheme", "http"},
        {":scheme", "https"},
        {":status", "200"},
        {":status", "204"},
        {":status", "206"},
        {":status", "304"},
        {":status", "400"},
        {":status", "404"},
        {":status", "500"},
        {"accept-charset", ""},
        {"accept-encoding", "gzip, deflate"},
        {"accept-language", ""},
        {"accept-ranges", ""},
        {"accept", ""},
        {"access-control-allow-origin", ""},
        {"age", ""},
        {"allow", ""},
        {"authorization", ""},
        {"cache-control", ""},
        {"content-disposition", ""},
        {"content-encoding", ""},
        {"content-language", ""},
        {"content-length", ""},
        {"content-location", ""},
        {"content-range", ""},
        {"content-type", ""},
        {"cookie", ""},
        {"date", ""},
        {"etag", ""},
        {"expect", ""},
        {"expires", ""},
        {"from", ""},
        {"host", ""},
        {"if-match", ""},
        {"if-modified-since", ""},
        {"if-none-match", ""},
        {"if-range", ""},
        {"if-unmodified-since", ""},
        {"last-modified", ""},
        {"link", ""},
        {"location", ""},
        {"max-forwards", ""},
        {"proxy-authenticate", ""},
        {"proxy-authorization", ""},
        {"range", ""},
        {"referer", ""},
        {"refresh", ""},
        {"retry-after", ""},
        {"server", ""},
        {"set-cookie", ""},
        {"strict-transport-security", ""},
        {"transfer-encoding", ""},
        {"user-agent", ""},
        {"vary", ""},
        {"via", ""},
        {"www-authenticate", ""},
    }};

constexpr std::size_t kEntryOverhead = 32;

/// A hash of a string's length and its first and last 8 bytes: constant
/// time per string, where a byte-wise hash of long values (cookies, user
/// agents) costs more than the table scan it replaces.
std::uint64_t quick_hash(std::string_view s) noexcept {
  // Fixed-size loads only (a variable-length memcpy is a library call).
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  const std::size_t n = s.size();
  const char* p = s.data();
  if (n >= 8) {
    std::memcpy(&head, p, 8);
    std::memcpy(&tail, p + n - 8, 8);
  } else if (n >= 4) {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::memcpy(&first, p, 4);
    std::memcpy(&last, p + n - 4, 4);
    head = (std::uint64_t{first} << 32) | last;
  } else if (n > 0) {
    head = (std::uint64_t{static_cast<std::uint8_t>(p[0])} << 16) |
           (std::uint64_t{static_cast<std::uint8_t>(p[n / 2])} << 8) |
           static_cast<std::uint8_t>(p[n - 1]);
  }
  std::uint64_t h = (head ^ (n * 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccd;
  h ^= h >> 32;
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 29);
}

/// The static table by name: an open-addressed hash of each distinct name
/// to the run of entries carrying it (entries sharing a name are adjacent
/// in Appendix A), so the encoder's lookup is one hash and one compare
/// instead of a scan of 61 entries.
class StaticIndex {
 public:
  struct Run {
    std::string_view name;
    std::uint8_t first = 0;  // 1-based index of the first entry
    std::uint8_t count = 0;
  };

  StaticIndex() {
    for (std::size_t i = 0; i < kStaticTable.size(); ++i) {
      const std::string_view name = kStaticTable[i].first;
      Run& run = slot(name);
      if (run.count == 0) {
        run.name = name;
        run.first = static_cast<std::uint8_t>(i + 1);
      }
      assert(run.first + run.count == i + 1 && "static names not adjacent");
      ++run.count;
    }
  }

  /// The entries named `name`, or nullptr.
  const Run* find(std::string_view name) const {
    const Run& run = slots_[probe(name)];
    return run.count == 0 ? nullptr : &run;
  }

 private:
  static constexpr std::size_t kSlots = 128;  // > 2x the 52 distinct names

  std::size_t probe(std::string_view name) const {
    std::size_t i = static_cast<std::size_t>(quick_hash(name) % kSlots);
    while (slots_[i].count != 0 && slots_[i].name != name) {
      i = (i + 1) % kSlots;
    }
    return i;
  }
  Run& slot(std::string_view name) { return slots_[probe(name)]; }

  std::array<Run, kSlots> slots_{};
};

// Find in static table: returns 1-based index of exact match (0 = none);
// name_only gets the first name match.
std::size_t static_find(std::string_view name, std::string_view value,
                        std::size_t& name_only) {
  static const StaticIndex index;
  name_only = 0;
  const StaticIndex::Run* run = index.find(name);
  if (run == nullptr) return 0;
  name_only = run->first;
  for (std::size_t i = run->first; i < run->first + run->count; ++i) {
    if (kStaticTable[i - 1].second == value) return i;
  }
  return 0;
}

}  // namespace

std::size_t hpack_static_table_size() noexcept { return kStaticTable.size(); }

std::pair<std::string_view, std::string_view> hpack_static_at(
    std::size_t index) {
  return kStaticTable[index - 1];
}

std::size_t hpack_static_find(const std::string& name,
                              const std::string& value,
                              std::size_t& name_only_out) {
  return static_find(name, value, name_only_out);
}

void hpack_encode_int(std::uint64_t value, int prefix_bits,
                      std::uint8_t first_byte_flags,
                      std::vector<std::uint8_t>& out) {
  const std::uint64_t max_prefix = (1ULL << prefix_bits) - 1;
  if (value < max_prefix) {
    out.push_back(static_cast<std::uint8_t>(first_byte_flags | value));
    return;
  }
  out.push_back(static_cast<std::uint8_t>(first_byte_flags | max_prefix));
  value -= max_prefix;
  while (value >= 128) {
    out.push_back(static_cast<std::uint8_t>(0x80 | (value & 0x7f)));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

namespace {

/// hpack_decode_int without the owning error: the message, or nullptr.
const char* decode_int(std::span<const std::uint8_t> in, std::size_t& pos,
                       int prefix_bits, std::uint64_t& value) {
  if (pos >= in.size()) return "int: truncated";
  const std::uint64_t max_prefix = (1ULL << prefix_bits) - 1;
  value = in[pos++] & max_prefix;
  if (value < max_prefix) return nullptr;
  int shift = 0;
  while (true) {
    if (pos >= in.size()) return "int: truncated";
    if (shift > 56) return "int: overflow";
    const std::uint8_t byte = in[pos++];
    value += static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return nullptr;
    shift += 7;
  }
}

}  // namespace

util::Expected<std::uint64_t, std::string> hpack_decode_int(
    std::span<const std::uint8_t> in, std::size_t& pos, int prefix_bits) {
  std::uint64_t value = 0;
  if (const char* error = decode_int(in, pos, prefix_bits, value)) {
    return util::make_unexpected(std::string(error));
  }
  return value;
}

namespace {

std::uint64_t field_hash(std::uint64_t name_hash, std::string_view value) {
  const std::uint64_t h =
      (name_hash ^ std::rotl(quick_hash(value), 17)) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

constexpr int kBucketBits = 6;  // log2(HpackDynamicTable::kBuckets)

std::size_t bucket_of(std::uint64_t hash) noexcept {
  return static_cast<std::size_t>(hash >> (64 - kBucketBits));
}

std::uint32_t tag_of(std::uint64_t hash) noexcept {
  return static_cast<std::uint32_t>(hash);
}

}  // namespace

void HpackDynamicTable::add(std::string_view name, std::string_view value) {
  static_assert(kBuckets == std::size_t{1} << kBucketBits);
  const std::size_t entry_size = name.size() + value.size() + kEntryOverhead;
  if (entry_size > max_size_) {
    // An entry larger than the table empties it (RFC 7541 §4.4).
    evict_to(0);
    return;
  }
  evict_to(max_size_ - entry_size);
  reserve_for(name.size() + value.size());
  // Empty views may be null, and so may the buffer of a table that has
  // held only empty fields: copy nothing then.
  char* out = bytes_.get() + tail_;
  if (!name.empty()) std::memcpy(out, name.data(), name.size());
  if (!value.empty()) {
    std::memcpy(out + name.size(), value.data(), value.size());
  }

  const std::uint64_t nh = quick_hash(name);
  const std::uint64_t fh = field_hash(nh, value);
  Record& r = records_[inserted_ & (records_.size() - 1)];
  r.offset = tail_;
  r.name_len = name.size();
  r.value_len = value.size();
  r.name_hash = tag_of(nh);
  r.field_hash = tag_of(fh);
  std::uint64_t& name_head = heads_[bucket_of(nh)];
  std::uint64_t& field_head = heads_[kBuckets + bucket_of(fh)];
  r.name_next = name_head;
  r.field_next = field_head;
  ++inserted_;
  name_head = field_head = inserted_;  // insertion number + 1

  tail_ += name.size() + value.size();
  ++count_;
  size_ += entry_size;
}

void HpackDynamicTable::reserve_for(std::size_t bytes) {
  if (count_ == records_.size()) {
    // The record ring is full: double it, each live entry moving to the
    // slot of its insertion number under the wider mask.
    std::vector<Record> grown(std::max<std::size_t>(16, 2 * records_.size()));
    for (std::uint64_t n = oldest(); n < inserted_; ++n) {
      grown[n & (grown.size() - 1)] = record(n);
    }
    records_.swap(grown);
  }
  if (heads_.empty()) heads_.assign(2 * kBuckets, 0);
  if (tail_ + bytes <= capacity_) return;
  // Out of tail room: slide the live bytes (oldest first, contiguous) to
  // the front, or move them into a buffer twice what is needed. Sliding
  // only while the live bytes fill at most half the buffer means a slide
  // moves no more bytes than were appended since the previous one.
  const std::size_t live_begin = count_ == 0 ? tail_ : record(oldest()).offset;
  const std::size_t live = tail_ - live_begin;
  const std::size_t need = live + bytes;
  if (2 * need > capacity_) {
    capacity_ = std::max<std::size_t>(2 * need, 1024);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity_);
    if (live > 0) std::memcpy(grown.get(), bytes_.get() + live_begin, live);
    bytes_ = std::move(grown);
  } else if (live > 0) {
    std::memmove(bytes_.get(), bytes_.get() + live_begin, live);
  }
  for (std::uint64_t n = oldest(); n < inserted_; ++n) {
    records_[n & (records_.size() - 1)].offset -= live_begin;
  }
  tail_ = live;
}

void HpackDynamicTable::set_max_size(std::size_t max) {
  max_size_ = max;
  evict_to(max_size_);
}

void HpackDynamicTable::evict_to(std::size_t limit) {
  while (size_ > limit && count_ > 0) {
    const Record& r = record(oldest());
    size_ -= r.name_len + r.value_len + kEntryOverhead;
    --count_;
  }
  if (count_ == 0) tail_ = 0;
}

std::size_t HpackDynamicTable::find(std::string_view name,
                                    std::string_view value,
                                    std::size_t& name_only_out) const {
  name_only_out = npos;
  if (count_ == 0) return npos;
  // Chains run newest to oldest and hold insertion numbers + 1: a link at
  // or below the oldest live number ends the chain (evicted).
  const std::uint64_t live_above = oldest();
  const std::uint64_t nh = quick_hash(name);
  for (std::uint64_t n = heads_[bucket_of(nh)]; n > live_above;) {
    const Record& r = record(n - 1);
    if (r.name_hash == tag_of(nh) && field(r).name == name) {
      name_only_out = static_cast<std::size_t>(inserted_ - n);
      break;
    }
    n = r.name_next;
  }
  if (name_only_out == npos) return npos;
  const std::uint64_t fh = field_hash(nh, value);
  for (std::uint64_t n = heads_[kBuckets + bucket_of(fh)]; n > live_above;) {
    const Record& r = record(n - 1);
    if (r.field_hash == tag_of(fh) && field(r) == Field{name, value}) {
      return static_cast<std::size_t>(inserted_ - n);
    }
    n = r.field_next;
  }
  return npos;
}

void HpackEncoder::set_table_size(std::size_t max) {
  table_.set_max_size(max);
  pending_size_update_ = true;
  pending_size_ = max;
}

void HpackEncoder::encode_string(const std::string& s, bool use_huffman,
                                 std::vector<std::uint8_t>& out) {
  if (use_huffman) {
    // Prefer Huffman on ties: RFC 7541 Appendix C's example encoder does
    // (C.6.2 codes "307" in 3 Huffman bytes where raw is also 3).
    const std::size_t hlen = huffman_encoded_size(s);
    if (hlen <= s.size()) {
      hpack_encode_int(hlen, 7, 0x80, out);
      huffman_encode(s, out);
      return;
    }
  }
  hpack_encode_int(s.size(), 7, 0x00, out);
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> HpackEncoder::encode(const http::HeaderBlock& block,
                                               bool use_huffman) {
  std::vector<std::uint8_t> out;
  encode_into(block, out, use_huffman);
  return out;
}

void HpackEncoder::encode_into(const http::HeaderBlock& block,
                               std::vector<std::uint8_t>& out,
                               bool use_huffman) {
  out.clear();
  if (pending_size_update_) {
    hpack_encode_int(pending_size_, 5, 0x20, out);
    pending_size_update_ = false;
  }
  for (const auto& h : block) {
    std::size_t static_name = 0;
    const std::size_t static_exact = static_find(h.name, h.value, static_name);
    if (static_exact != 0) {
      hpack_encode_int(static_exact, 7, 0x80, out);  // indexed (static)
      continue;
    }
    std::size_t dyn_name = HpackDynamicTable::npos;
    const std::size_t dyn_exact = table_.find(h.name, h.value, dyn_name);
    if (dyn_exact != HpackDynamicTable::npos) {
      hpack_encode_int(kStaticTable.size() + 1 + dyn_exact, 7, 0x80, out);
      continue;
    }
    // Literal with incremental indexing.
    if (static_name != 0) {
      hpack_encode_int(static_name, 6, 0x40, out);
    } else if (dyn_name != HpackDynamicTable::npos) {
      hpack_encode_int(kStaticTable.size() + 1 + dyn_name, 6, 0x40, out);
    } else {
      out.push_back(0x40);
      encode_string(h.name, use_huffman, out);
    }
    encode_string(h.value, use_huffman, out);
    table_.add(h.name, h.value);
  }
}

util::Expected<HpackDecoder::Field, const char*> HpackDecoder::lookup(
    std::uint64_t index) const {
  if (index == 0) return util::make_unexpected("hpack: index 0");
  if (index <= kStaticTable.size()) {
    const auto& [name, value] = kStaticTable[index - 1];
    return Field{name, value};
  }
  const std::uint64_t dyn = index - kStaticTable.size() - 1;
  if (dyn >= table_.entry_count()) {
    return util::make_unexpected("hpack: index out of range");
  }
  return table_.at(dyn);
}

const char* HpackDecoder::decode_string(std::span<const std::uint8_t> in,
                                        std::size_t& pos, std::string& out) {
  if (pos >= in.size()) return "string: truncated";
  const bool huffman = (in[pos] & 0x80) != 0;
  std::uint64_t len = 0;
  if (const char* error = decode_int(in, pos, 7, len)) return error;
  if (pos + len > in.size()) return "string: length beyond block";
  const auto payload = in.subspan(pos, static_cast<std::size_t>(len));
  pos += static_cast<std::size_t>(len);
  if (huffman) return huffman_decode_into(payload, out);
  out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return nullptr;
}

util::Expected<http::HeaderBlock, std::string> HpackDecoder::decode(
    std::span<const std::uint8_t> input) {
  http::HeaderBlock block;
  if (const char* error = decode_into(input, block)) {
    return util::make_unexpected(std::string(error));
  }
  return block;
}

const char* HpackDecoder::decode_into(std::span<const std::uint8_t> input,
                                      http::HeaderBlock& out) {
  std::size_t fields = 0;
  // The next field, cleared, over the storage `out` already holds there.
  const auto next_field = [&]() -> http::Header& {
    if (fields == out.size()) out.emplace_back();
    http::Header& field = out[fields++];
    field.name.clear();
    field.value.clear();
    return field;
  };
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::uint8_t b = input[pos];
    std::uint64_t index = 0;
    if (b & 0x80) {
      // Indexed header field.
      if (const char* error = decode_int(input, pos, 7, index)) return error;
      auto entry = lookup(index);
      if (!entry) return entry.error();
      http::Header& field = next_field();
      field.name.assign(entry->name);
      field.value.assign(entry->value);
    } else if ((b & 0xe0) == 0x20) {
      // Dynamic table size update; must precede header fields (§4.2).
      if (fields != 0) return "hpack: size update after header";
      if (const char* error = decode_int(input, pos, 5, index)) return error;
      if (index > settings_max_) {
        return "hpack: size update above SETTINGS cap";
      }
      table_.set_max_size(static_cast<std::size_t>(index));
    } else {
      // Literal with incremental indexing (0x40), without indexing (0x00)
      // or never indexed (0x10).
      const bool indexing = (b & 0x40) != 0;
      if (const char* error = decode_int(input, pos, indexing ? 6 : 4, index)) {
        return error;
      }
      http::Header& field = next_field();
      if (index == 0) {
        if (const char* error = decode_string(input, pos, field.name)) {
          return error;
        }
      } else {
        auto entry = lookup(index);
        if (!entry) return entry.error();
        field.name.assign(entry->name);
      }
      if (const char* error = decode_string(input, pos, field.value)) {
        return error;
      }
      // The table copies the built field: a looked-up name viewed an
      // entry this insertion may evict.
      if (indexing) table_.add(field.name, field.value);
    }
  }
  out.resize(fields);
  return nullptr;
}

}  // namespace h2push::h2
