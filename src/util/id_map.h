// A map from 32-bit ids to values, for tables keyed by HTTP/2 stream id.
//
// Values live in a slab (one vector) whose freed slots are reused, so
// inserting and erasing allocate nothing once the slab and the index have
// grown to the peak number of live entries: memory is bounded by the live
// entries, never by the ids seen. The index is open-addressed (linear
// probing, Fibonacci hashing) with backward-shift deletion, so no
// tombstones build up under churn. A slot is stable for as long as its id
// stays in the map, which lets callers link entries by slot index (the
// priority tree's child and sibling links); references into the slab are
// invalidated by an insert that grows it.
//
// Iteration (any_of, for_each) visits entries in slab order, which depends
// on the history of inserts and erases: use it only where order does not
// matter.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace h2push::util {

/// "No slot": IdMap::slot_of() for an absent id, and a null slot link for
/// callers that link entries by slot.
inline constexpr std::uint32_t kNoSlot = UINT32_MAX;

template <typename T>
class IdMap {
 public:
  std::size_t size() const noexcept { return size_; }

  /// The slot holding `id`, or kNoSlot.
  std::uint32_t slot_of(std::uint32_t id) const noexcept {
    if (index_.empty()) return kNoSlot;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Bucket& b = index_[i];
      if (b.slot == kNoSlot) return kNoSlot;
      if (b.id == id) return b.slot;
    }
  }
  bool contains(std::uint32_t id) const noexcept {
    return slot_of(id) != kNoSlot;
  }
  T* find(std::uint32_t id) noexcept {
    const std::uint32_t s = slot_of(id);
    return s == kNoSlot ? nullptr : &slab_[s].value;
  }
  const T* find(std::uint32_t id) const noexcept {
    const std::uint32_t s = slot_of(id);
    return s == kNoSlot ? nullptr : &slab_[s].value;
  }

  /// Insert `id` (which must be absent; UINT32_MAX is reserved) with a
  /// value-initialized T and return its slot.
  std::uint32_t insert(std::uint32_t id) {
    assert(id != kFree && !contains(id));
    if ((size_ + 1) * 4 > index_.size() * 3) grow();
    std::uint32_t s;
    if (free_ != kNoSlot) {
      s = free_;
      free_ = slab_[s].next_free;
    } else {
      s = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    slab_[s].id = id;
    place(id, s);
    ++size_;
    return s;
  }

  /// Erase `id` if present; its value is reset to T{} (releasing what it
  /// owns) and its slot is reused by a later insert.
  void erase(std::uint32_t id) {
    if (index_.empty()) return;
    std::size_t i = home(id);
    for (;; i = (i + 1) & mask_) {
      if (index_[i].slot == kNoSlot) return;
      if (index_[i].id == id) break;
    }
    const std::uint32_t s = index_[i].slot;
    // Backward-shift deletion: pull each later bucket of the probe run
    // into the hole unless its home lies cyclically in (hole, bucket].
    for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
      if (index_[j].slot == kNoSlot) break;
      const std::size_t h = home(index_[j].id);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i].slot = kNoSlot;
    Entry& e = slab_[s];
    e.value = T{};
    e.id = kFree;
    e.next_free = free_;
    free_ = s;
    --size_;
  }

  /// The value and id in a live slot.
  T& at(std::uint32_t slot) noexcept { return slab_[slot].value; }
  const T& at(std::uint32_t slot) const noexcept { return slab_[slot].value; }
  std::uint32_t id_at(std::uint32_t slot) const noexcept {
    return slab_[slot].id;
  }

  /// True if pred(id, value) holds for some entry; stops at the first.
  template <typename F>
  bool any_of(F&& pred) const {
    for (const Entry& e : slab_) {
      if (e.id != kFree && pred(e.id, e.value)) return true;
    }
    return false;
  }

  /// Call f(id, value) for every entry, in slab order.
  template <typename F>
  void for_each(F&& f) {
    for (Entry& e : slab_) {
      if (e.id != kFree) f(e.id, e.value);
    }
  }

 private:
  static constexpr std::uint32_t kFree = UINT32_MAX;  // id of a free slot

  struct Entry {
    std::uint32_t id = kFree;
    std::uint32_t next_free = kNoSlot;
    T value{};
  };
  struct Bucket {
    std::uint32_t id = 0;
    std::uint32_t slot = kNoSlot;  // kNoSlot: empty bucket
  };

  std::size_t home(std::uint32_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b1u) >> shift_);
  }
  void place(std::uint32_t id, std::uint32_t slot) noexcept {
    std::size_t i = home(id);
    while (index_[i].slot != kNoSlot) i = (i + 1) & mask_;
    index_[i] = Bucket{id, slot};
  }
  void grow() {
    const std::size_t buckets = index_.empty() ? 8 : index_.size() * 2;
    shift_ = 32 - std::countr_zero(buckets);
    mask_ = buckets - 1;
    index_.assign(buckets, Bucket{});
    slab_.reserve(buckets * 3 / 4);  // the slab grows when the index does
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (slab_[s].id != kFree) place(slab_[s].id, s);
    }
  }

  std::vector<Entry> slab_;
  std::vector<Bucket> index_;  // power-of-two size, at most 3/4 full
  std::uint32_t free_ = kNoSlot;  // head of the free-slot list
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 32;
};

}  // namespace h2push::util
