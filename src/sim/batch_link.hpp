// Batched FIFO links: every link of a ring in one arena.
//
// The batch engine (core/batch_engine.hpp) restarts one ring per worker
// for cell after cell; giving each of its n links its own heap-backed Link
// would scatter the hot state across allocations. LinkPlane instead packs
// all `links` queues into one contiguous buffer with a fixed power-of-two
// stride per link, plus dense head/count/high-water planes — the same
// ring-buffer semantics as sim::Link (FIFO, capacity-keeping reset,
// high-water tracking), restricted to the step engine's "every queued
// message is deliverable" regime (no per-message delivery times).
//
// The stride only ever grows: when any link outgrows it, the whole plane
// re-lays out at double the stride (cold path, amortized away in recycled
// arenas exactly like Link::grow).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "support/assert.hpp"

namespace hring::sim {

class LinkPlane {
 public:
  /// Resizes to `links` queues, all empty, with at least `min_capacity`
  /// slots per link (rounded up to a power of two). Buffers keep their
  /// capacity across reset calls, so recycled arenas stay allocation-free.
  void reset(std::size_t links, std::size_t min_capacity = 8);

  /// Rewinds one link to empty (queue, high-water mark), keeping the
  /// stride — the per-cell restart of the batch engine's ring.
  void reset_link(std::size_t link) {
    HRING_EXPECTS(link < links_);
    head_[link] = 0;
    count_[link] = 0;
    high_[link] = 0;
  }

  [[nodiscard]] std::size_t links() const { return links_; }
  [[nodiscard]] std::size_t capacity() const { return stride_; }

  // hring-lint: hot-path
  [[nodiscard]] bool empty(std::size_t link) const {
    HRING_EXPECTS(link < links_);
    return count_[link] == 0;
  }

  [[nodiscard]] std::size_t size(std::size_t link) const {
    HRING_EXPECTS(link < links_);
    return count_[link];
  }

  /// Largest queue length observed since the link's last reset.
  [[nodiscard]] std::size_t high_water(std::size_t link) const {
    HRING_EXPECTS(link < links_);
    return high_[link];
  }

  /// Head message of `link`, or nullptr when empty. Step-engine semantics:
  /// everything queued is deliverable.
  // hring-lint: hot-path
  [[nodiscard]] const Message* head(std::size_t link) const {
    HRING_EXPECTS(link < links_);
    if (count_[link] == 0) return nullptr;
    return &buf_[link * stride_ + head_[link]];
  }

  /// Appends `msg` at the tail of `link`; grows the stride when full.
  // hring-lint: hot-path
  void push(std::size_t link, const Message& msg) {
    HRING_EXPECTS(link < links_);
    if (count_[link] == stride_) grow();
    buf_[link * stride_ + ((head_[link] + count_[link]) & (stride_ - 1))] =
        msg;
    ++count_[link];
    if (count_[link] > high_[link]) high_[link] = count_[link];
  }

  /// Removes and returns the head of `link`. Requires a non-empty link.
  // hring-lint: hot-path
  Message pop(std::size_t link) {
    HRING_EXPECTS(link < links_);
    HRING_EXPECTS(count_[link] > 0);
    const std::size_t at = link * stride_ + head_[link];
    const Message msg = buf_[at];
    head_[link] = static_cast<std::uint32_t>((head_[link] + 1U) & (stride_ - 1));
    --count_[link];
    if (count_[link] == 0) head_[link] = 0;
    return msg;
  }

 private:
  void grow();

  std::vector<Message> buf_;         // links_ * stride_ slots
  std::vector<std::uint32_t> head_;  // index of the head message per link
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> high_;
  std::size_t links_ = 0;
  std::size_t stride_ = 0;  // slots per link; always a power of two
};

}  // namespace hring::sim
