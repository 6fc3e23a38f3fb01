#include "browser/stylesheet_cache.h"

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace h2push::browser {
namespace {

class StylesheetCache {
 public:
  std::shared_ptr<const Stylesheet> get(std::string_view text) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.lookups;
      slot = find_or_insert(text);
    }
    // The first caller parses; any other caller of the same slot waits for
    // it here. A parse that throws leaves the slot for the next caller.
    std::call_once(slot->parsed, [&] {
      slot->sheet = std::make_shared<const Stylesheet>(parse_css(text));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.parses;
    });
    return slot->sheet;
  }

  SharedStylesheetStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    SharedStylesheetStats out = stats_;
    out.entries = lru_.size();
    return out;
  }

 private:
  struct Slot {
    std::once_flag parsed;
    std::shared_ptr<const Stylesheet> sheet;
  };
  struct Entry {
    std::string text;
    std::shared_ptr<Slot> slot;
  };

  // Caller holds mu_. A hit becomes the most recently used entry; a miss
  // adds an unparsed slot and evicts down to the bound.
  std::shared_ptr<Slot> find_or_insert(std::string_view text) {
    if (const auto it = index_.find(text); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->slot;
    }
    lru_.push_front(Entry{std::string(text), std::make_shared<Slot>()});
    index_.emplace(lru_.front().text, lru_.begin());
    while (lru_.size() > kSharedStylesheetEntries) {
      index_.erase(lru_.back().text);
      lru_.pop_back();
    }
    return lru_.front().slot;
  }

  std::mutex mu_;
  SharedStylesheetStats stats_;
  std::list<Entry> lru_;  // most recently used first
  // Keys view the text owned by their lru_ entry; list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
};

StylesheetCache& cache() {
  static StylesheetCache instance;
  return instance;
}

}  // namespace

std::shared_ptr<const Stylesheet> shared_stylesheet(std::string_view text) {
  return cache().get(text);
}

SharedStylesheetStats shared_stylesheet_stats() { return cache().stats(); }

}  // namespace h2push::browser
