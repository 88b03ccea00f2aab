// Reliable FIFO links (§II).
//
// S(p_i, p_{i+1}) is the ordered list of in-flight messages; send appends at
// the tail, rcv removes the head, nothing is lost or reordered. The
// discrete-event engine additionally stamps each message with its delivery
// time; in the step engine every queued message is immediately receivable.
//
// Storage is a flat ring buffer over one contiguous allocation. The buffer
// only ever grows; reset() rewinds the link to empty while keeping the
// capacity, so a recycled execution (ExecutionCore::reset, the batch
// engine's per-cell restart) replays thousands of runs without touching the
// allocator on the hot path. push, head and pop are defined here, in the
// header, so every engine's firing loop inlines them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/message.hpp"
#include "support/assert.hpp"

namespace hring::sim {

class Link {
 public:
  /// Appends `msg` at the tail with the given delivery time (step engine
  /// uses 0: always deliverable). Delivery times must be non-decreasing
  /// along the queue — the engines enforce this to preserve FIFO.
  // hring-lint: hot-path
  void push(const Message& msg, double ready_time = 0.0) {
    HRING_EXPECTS(ready_time >= last_ready_time_);
    if (count_ == buf_.size()) grow();
    buf_[slot(count_)] = InFlight{msg, ready_time};
    ++count_;
    last_ready_time_ = ready_time;
    high_water_ = std::max(high_water_, count_);
  }

  /// Head message, or nullptr when empty. `now` filters messages still in
  /// transit (DES); the default admits everything already queued.
  // hring-lint: hot-path
  [[nodiscard]] const Message* head(
      double now = std::numeric_limits<double>::infinity()) const {
    if (count_ == 0 || buf_[head_].ready_time > now) return nullptr;
    return &buf_[head_].msg;
  }

  /// Delivery time of the head message. Requires a non-empty link.
  [[nodiscard]] double head_ready_time() const;

  /// Removes and returns the head. Requires a non-empty link.
  // hring-lint: hot-path
  Message pop() {
    HRING_EXPECTS(count_ > 0);
    const Message msg = buf_[head_].msg;
    head_ = slot(1);
    --count_;
    if (count_ == 0) head_ = 0;
    return msg;
  }

  /// Swaps the payloads of the last two queued messages, keeping their
  /// delivery times in place (so per-link delivery stays monotone). Used
  /// only by the fault injector's reorder fault. Requires size() >= 2.
  void swap_last_two_payloads();

  /// Rewinds to the empty state — queue, high-water mark and delivery
  /// clock — without releasing the buffer. ExecutionCore::reset calls this
  /// so recycled executions start from S(p_i, p_{i+1}) = ∅ for free.
  void reset();

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Largest queue length ever observed since the last reset (link-state
  /// space metric).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  /// Delivery time of the most recently pushed message (0 when none yet);
  /// the DES clamps new deliveries to at least this, keeping FIFO order.
  [[nodiscard]] double last_ready_time() const { return last_ready_time_; }

 private:
  struct InFlight {
    Message msg;
    double ready_time;
  };

  /// Buffer slot holding the i-th queued message (0 = head). The capacity
  /// is a power of two, so the wrap is a mask, not a division.
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    return (head_ + i) & (buf_.size() - 1);
  }

  void grow();

  std::vector<InFlight> buf_;  // capacity; always a power of two (or empty)
  std::size_t head_ = 0;       // index of the head message when count_ > 0
  std::size_t count_ = 0;
  std::size_t high_water_ = 0;
  double last_ready_time_ = 0.0;
};

}  // namespace hring::sim
