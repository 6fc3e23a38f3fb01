#include "fuzz/gen_hpack.h"

#include <string>
#include <utility>

#include "h2/hpack_huffman.h"

namespace h2push::fuzz {

namespace {

void encode_string(const std::string& s, bool huffman,
                   std::vector<std::uint8_t>& out) {
  if (huffman) {
    std::vector<std::uint8_t> enc;
    h2::huffman_encode(s, enc);
    h2::hpack_encode_int(enc.size(), 7, 0x80, out);
    out.insert(out.end(), enc.begin(), enc.end());
  } else {
    h2::hpack_encode_int(s.size(), 7, 0x00, out);
    out.insert(out.end(), s.begin(), s.end());
  }
}

/// Header at 1-based HPACK index across static + dynamic tables.
http::Header header_at(const h2::HpackDynamicTable& shadow,
                       std::size_t index) {
  if (index <= h2::hpack_static_table_size()) {
    const auto [name, value] = h2::hpack_static_at(index);
    return {std::string(name), std::string(value)};
  }
  const auto [name, value] =
      shadow.at(index - h2::hpack_static_table_size() - 1);
  return {std::string(name), std::string(value)};
}

std::string random_name(Random& r) {
  if (r.chance(0.2)) {
    // Reuse a well-known name so index/literal paths mix on one name.
    const auto idx = r.range(1, h2::hpack_static_table_size());
    return std::string(h2::hpack_static_at(idx).first);
  }
  return r.token(1, 12);
}

}  // namespace

GeneratedBlock random_block(Random& r, h2::HpackDynamicTable& shadow,
                            std::size_t settings_max) {
  GeneratedBlock out;

  // Dynamic table size updates are only legal at the start of a block
  // (RFC 7541 §4.2). Occasionally emit the classic shrink-then-grow pair
  // that forces a full eviction.
  auto updates = r.fork("tsu");
  if (updates.chance(0.25)) {
    const std::size_t n = updates.chance(0.3) ? 2 : 1;
    for (std::size_t i = 0; i < n; ++i) {
      const auto target =
          static_cast<std::size_t>(updates.range(0, settings_max));
      h2::hpack_encode_int(target, 5, 0x20, out.bytes);
      shadow.set_max_size(target);
    }
  }

  auto reps = r.fork("reps");
  auto strings = r.fork("strings");
  const std::size_t count = reps.range(1, 10);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t table_span =
        h2::hpack_static_table_size() + shadow.entry_count();
    const double roll = static_cast<double>(reps.range(0, 99)) / 100.0;

    if (roll < 0.30) {
      // Indexed representation.
      const auto index = reps.range(1, table_span);
      http::Header h = header_at(shadow, index);
      h2::hpack_encode_int(index, 7, 0x80, out.bytes);
      out.expected.push_back(std::move(h));
      continue;
    }

    // Literal representations share one layout; only the first byte and
    // the table side effect differ.
    int prefix_bits;
    std::uint8_t flags;
    bool add_to_table = false;
    if (roll < 0.65) {
      prefix_bits = 6;
      flags = 0x40;  // incremental indexing
      add_to_table = true;
    } else if (roll < 0.85) {
      prefix_bits = 4;
      flags = 0x00;  // without indexing
    } else {
      prefix_bits = 4;
      flags = 0x10;  // never indexed
    }

    std::string name;
    std::string value = strings.token(0, 24);
    std::size_t name_index = 0;
    if (reps.chance(0.5)) {
      name_index = reps.range(1, table_span);
      name = header_at(shadow, name_index).name;
    } else {
      name = random_name(strings);
    }

    h2::hpack_encode_int(name_index, prefix_bits, flags, out.bytes);
    if (name_index == 0) {
      encode_string(name, strings.chance(0.5), out.bytes);
    }
    encode_string(value, strings.chance(0.5), out.bytes);

    if (add_to_table) shadow.add(name, value);
    out.expected.push_back({std::move(name), std::move(value)});
  }
  return out;
}

std::vector<std::uint8_t> random_bad_block(Random& r) {
  if (r.chance(0.4)) return r.bytes(0, 64);  // raw soup
  // Mutated valid block: flip / truncate / splice.
  h2::HpackDynamicTable shadow;
  auto block = random_block(r, shadow, 4096).bytes;
  auto muts = r.fork("mut");
  const std::size_t n = 1 + muts.small_count(4);
  for (std::size_t i = 0; i < n && !block.empty(); ++i) {
    switch (muts.index(4)) {
      case 0:  // bit flip
        block[muts.index(block.size())] ^=
            static_cast<std::uint8_t>(1u << muts.index(8));
        break;
      case 1:  // truncate
        block.resize(muts.index(block.size() + 1));
        break;
      case 2:  // byte overwrite
        block[muts.index(block.size())] =
            static_cast<std::uint8_t>(muts.range(0, 255));
        break;
      default: {  // insert a byte
        const auto pos = muts.index(block.size() + 1);
        block.insert(block.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<std::uint8_t>(muts.range(0, 255)));
        break;
      }
    }
  }
  return block;
}

}  // namespace h2push::fuzz
