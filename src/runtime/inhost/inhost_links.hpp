// The in-host runtime's data plane: n SPSC byte queues as ring links.
//
// Port i is the §II link S(p_i, p_{i+1}), realized as a lock-free
// SpscByteQueue whose producer is p_i's worker thread and whose consumer
// is p_{i+1}'s. Messages cross as hardened wire frames (runtime/wire.hpp)
// — send_cancelable() encodes, peek() decodes — so this backend exercises
// the byte path a distributed deployment would, not in-memory Message
// hand-off.
//
// Frames that fail decoding are *dropped*: peek() discards the bad frame,
// counts it in rejects(port), and moves on to the next frame. The
// election keeps running over the surviving traffic; the mutation tests
// (tests/runtime/inhost_ring_test.cpp) inject garbage via poke_raw() and
// assert exactly this containment. peek's pointer lives in a per-port
// scratch owned by the port's single consumer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/inhost/spsc_queue.hpp"
#include "runtime/wire.hpp"
#include "sim/message.hpp"
#include "support/assert.hpp"

namespace hring::runtime {

/// Monotonic nanoseconds for frame timestamps / latency telemetry.
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class InHostLinks {
 public:
  /// Rebinds to `ports` queues of `capacity_bytes` each (rounded up to a
  /// power of two). `label_bits` is the ring's b, enforced by the frame
  /// decoder on every receive.
  void reset(std::size_t ports, std::size_t label_bits,
             std::size_t capacity_bytes) {
    queues_.clear();
    queues_.reserve(ports);
    for (std::size_t i = 0; i < ports; ++i) {
      queues_.push_back(std::make_unique<SpscByteQueue>(capacity_bytes));
    }
    scratch_ = std::vector<PortScratch>(ports);
    doorbells_ = std::make_unique<Doorbell[]>(ports);
    label_bits_ = label_bits;
  }

  [[nodiscard]] std::size_t label_bits() const { return label_bits_; }

  /// Producer side: encodes and writes one frame, waiting out a full
  /// queue with adaptive backoff until `cancel` returns true. Returns
  /// true iff the frame was enqueued. `send_ts_ns` (optional) receives
  /// the timestamp stamped into the frame — the flight recorder uses it
  /// to key message-flow matching, since the receiver sees the same
  /// value come back out of the decoder.
  template <class Cancel>
  [[nodiscard]] bool send_cancelable(std::size_t port,
                                     const sim::Message& msg, Cancel cancel,
                                     std::uint64_t* send_ts_ns = nullptr) {
    HRING_EXPECTS(port < queues_.size());
    wire::Frame frame;
    const std::uint64_t ts = monotonic_ns();
    wire::encode(msg, ts, frame);
    Backoff backoff;
    while (!queues_[port]->try_write(frame.data(), frame.size())) {
      if (cancel()) return false;
      backoff.pause();
    }
    if (send_ts_ns != nullptr) *send_ts_ns = ts;
    ring(port);
    return true;
  }

  /// Raw producer-side injection for mutation tests: writes `len`
  /// arbitrary bytes (typically a corrupted frame) with the same
  /// blocking discipline. Test hook — election code never calls this.
  void poke_raw(std::size_t port, const std::uint8_t* bytes,
                std::size_t len) {
    HRING_EXPECTS(port < queues_.size());
    Backoff backoff;
    while (!queues_[port]->try_write(bytes, len)) backoff.pause();
    ring(port);
  }

  /// Consumer-side parking ticket for `port`. Protocol: read the ticket,
  /// re-check the queue (peek), and only then doorbell_wait(ticket) — the
  /// producer publishes its frame *before* ringing, so a consumer that
  /// missed the frame is guaranteed a changed ticket or a pending notify.
  // hring-role: consumer
  [[nodiscard]] std::uint32_t doorbell(std::size_t port) const {
    HRING_EXPECTS(port < ports());
    return doorbells_[port].value.load(std::memory_order_acquire);
  }

  /// Parks the calling (consumer) thread until the port's doorbell moves
  /// past `ticket`: a new frame arrived, or ring_all() was called. Idle
  /// workers cost zero CPU this way — essential when the host runs many
  /// more workers than cores.
  // hring-role: consumer
  void doorbell_wait(std::size_t port, std::uint32_t ticket) const {
    HRING_EXPECTS(port < ports());
    doorbells_[port].value.wait(ticket, std::memory_order_acquire);
  }

  /// Rings every doorbell (shutdown path: wake all parked consumers so
  /// they can observe the stop flag and exit).
  // hring-role: coordinator
  void ring_all() {
    for (std::size_t port = 0; port < ports(); ++port) {
      doorbells_[port].value.fetch_add(1, std::memory_order_release);
      doorbells_[port].value.notify_all();
    }
  }

  /// Consumer side: decoded head frame of `port`, nullptr when no
  /// complete valid frame is queued. Rejected frames are discarded and
  /// counted; the scan continues to the next frame, so corruption never
  /// wedges the link. The pointer stays valid until the port's consumer
  /// next calls peek/recv_peeked (single-consumer discipline).
  [[nodiscard]] const sim::Message* peek(std::size_t port) {
    HRING_EXPECTS(port < queues_.size());
    PortScratch& scratch = scratch_[port];
    SpscByteQueue& queue = *queues_[port];
    wire::Frame frame;
    for (;;) {
      if (!queue.try_peek(frame.data(), frame.size())) {
        scratch.valid = false;
        return nullptr;
      }
      const wire::DecodeError err = wire::decode(
          frame, label_bits_, scratch.msg, scratch.send_ts_ns);
      if (err == wire::DecodeError::kOk) {
        scratch.valid = true;
        return &scratch.msg;
      }
      // Hardened rejection: drop the frame, count it, keep the runtime
      // alive. The sender's counters and ours now legitimately disagree
      // — the conformance harness treats rejects as faults.
      queue.discard(frame.size());
      scratch.rejects += 1;
      scratch.valid = false;
    }
  }

  /// Consumer side: removes the head frame previously seen by peek().
  /// Fills `send_ts_ns` with the sender's enqueue timestamp. Requires a
  /// preceding successful peek on this port (the §II consume-what-you-
  /// peeked discipline; single consumer makes it race-free).
  [[nodiscard]] sim::Message recv_peeked(std::size_t port,
                                         std::uint64_t& send_ts_ns) {
    HRING_EXPECTS(port < queues_.size());
    PortScratch& scratch = scratch_[port];
    HRING_EXPECTS(scratch.valid);
    queues_[port]->discard(wire::kFrameBytes);
    scratch.valid = false;
    send_ts_ns = scratch.send_ts_ns;
    return scratch.msg;
  }

  /// Uncancelable send (blocks until room).
  void send(std::size_t port, const sim::Message& msg) {
    (void)send_cancelable(port, msg, [] { return false; });
  }

  /// Complete frames queued on `port` (consumer-exact, like readable()).
  [[nodiscard]] std::size_t depth(std::size_t port) const {
    HRING_EXPECTS(port < queues_.size());
    return queues_[port]->readable() / wire::kFrameBytes;
  }

  /// Bytes queued on `port`, including any trailing partial frame.
  [[nodiscard]] std::size_t pending_bytes(std::size_t port) const {
    HRING_EXPECTS(port < queues_.size());
    return queues_[port]->readable();
  }

  [[nodiscard]] std::size_t ports() const { return queues_.size(); }

  /// Frames rejected by the decoder on `port` so far (consumer-owned).
  [[nodiscard]] std::uint64_t rejects(std::size_t port) const {
    HRING_EXPECTS(port < scratch_.size());
    return scratch_[port].rejects;
  }

  [[nodiscard]] std::uint64_t total_rejects() const {
    std::uint64_t total = 0;
    for (const PortScratch& scratch : scratch_) total += scratch.rejects;
    return total;
  }

 private:
  /// Per-port consumer state: the decoded head (peek's pointee), its
  /// timestamp, and the reject counter. Cache-line aligned — each slot
  /// is written by a different worker thread.
  struct alignas(64) PortScratch {
    sim::Message msg{};
    std::uint64_t send_ts_ns = 0;
    std::uint64_t rejects = 0;
    bool valid = false;
  };

  /// One cache line per port: bumped by the producer after each publish,
  /// waited on (futex) by the parked consumer, kicked by ring_all().
  /// 32 bits, because std::atomic<T>::wait parks on the word itself only
  /// when T is int-sized: a 64-bit word parks in the library's shared
  /// waiter table, where each notify wakes every thread hashed to the same
  /// entry (at n = 1000, dozens of spurious wakes per message). The ticket
  /// cannot wrap under a parked consumer: it drains nothing, so at most a
  /// queue's worth of frames, one ring each, plus ring_all() can arrive.
  struct alignas(64) Doorbell {
    // hring-shared: producer,coordinator->consumer
    std::atomic<std::uint32_t> value{0};
  };

  // hring-lint: hot-path
  // hring-role: producer
  void ring(std::size_t port) {
    doorbells_[port].value.fetch_add(1, std::memory_order_release);
    doorbells_[port].value.notify_one();
  }

  std::vector<std::unique_ptr<SpscByteQueue>> queues_;
  std::vector<PortScratch> scratch_;
  std::unique_ptr<Doorbell[]> doorbells_;
  std::size_t label_bits_ = 0;
};

}  // namespace hring::runtime
