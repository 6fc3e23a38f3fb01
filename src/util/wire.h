// Wire bytes that may be borrowed rather than owned.
//
// A response body is an immutable shared string that outlives the page
// load, so a transport that reads its send buffer later (the simulator's
// TCP model, which delivers bytes out of the sender's buffer) can carry a
// DATA payload as a reference into the body instead of a copy. Two types
// carry that choice across the layers:
//   - WireOut, where a source (h2::Connection::produce_into) appends: owned
//     bytes into a vector, body bytes through append_borrowed(), which
//     copies unless the sink keeps references;
//   - WireBytes, what a transport delivers: one run of bytes, flagged
//     borrowed when it lies in a body, with the pin that keeps the body
//     alive. It converts to std::span, so span-taking receivers need no
//     change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace h2push::util {

/// Keeps an immutable byte range (a response body) alive while anything
/// references its bytes.
using Pin = std::shared_ptr<const void>;

/// A run of delivered bytes, valid only during the call that hands it
/// over. Borrowed bytes lie in an immutable body that `*pin` keeps alive:
/// a receiver that keeps a view past the call copies the pin, not the
/// bytes. Owned bytes (pin == nullptr) are the transport's and must be
/// copied to be kept.
struct WireBytes {
  std::span<const std::uint8_t> bytes;
  const Pin* pin = nullptr;

  bool borrowed() const noexcept { return pin != nullptr; }
  operator std::span<const std::uint8_t>() const noexcept { return bytes; }
};

/// Where a source appends wire bytes. Owned bytes go straight into
/// owned(); append_borrowed() hands over bytes of an immutable body. This
/// base copies them into owned(), so a plain vector sink sees every byte
/// in order; a sink that reads its bytes later overrides keep() to hold a
/// reference instead (sim::TcpConnection's send buffer).
class WireOut {
 public:
  explicit WireOut(std::vector<std::uint8_t>& owned) noexcept
      : owned_(owned) {}
  WireOut(const WireOut&) = delete;
  WireOut& operator=(const WireOut&) = delete;
  virtual ~WireOut() = default;

  std::vector<std::uint8_t>& owned() noexcept { return owned_; }
  /// Bytes appended by reference so far (kept, not copied).
  std::size_t borrowed() const noexcept { return borrowed_; }
  /// Owned plus borrowed bytes: what a source has appended is the change
  /// in size() across its call.
  std::size_t size() const noexcept { return owned_.size() + borrowed_; }

  /// Append `bytes`, which `pin` keeps alive and nothing ever changes.
  void append_borrowed(std::span<const std::uint8_t> bytes, Pin pin) {
    if (keep(bytes, std::move(pin))) {
      borrowed_ += bytes.size();
    } else {
      owned_.insert(owned_.end(), bytes.begin(), bytes.end());
    }
  }

 protected:
  /// Record a reference to `bytes` (at the current end of the stream) and
  /// return true, or return false to have them copied.
  virtual bool keep(std::span<const std::uint8_t> /*bytes*/, Pin&& /*pin*/) {
    return false;
  }

 private:
  std::vector<std::uint8_t>& owned_;
  std::size_t borrowed_ = 0;
};

}  // namespace h2push::util
