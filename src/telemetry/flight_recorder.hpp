// hring-telemetry: the flight recorder.
//
// A per-thread, fixed-capacity, allocation-free ring buffer of timestamped
// events — the black box the in-host runtime (runtime/inhost/) carries so
// that when the watchdog declares a stall, the run dies *with* a record of
// what every thread was doing instead of just merged end-of-run counters.
//
// Concurrency is the same Lamport single-writer discipline the SPSC byte
// queues use: each ring has exactly one writer (the owning worker thread),
// which reads its own cursor relaxed and publishes it with release after
// writing the slot; the forensic reader (the watchdog, or the main thread
// after join) loads the cursor acquire and walks the slots backward. Slot
// payloads are themselves relaxed atomics, so a reader racing an active
// writer can observe a torn *pair* (timestamp from one event, payload from
// another) on the slot currently being overwritten — never undefined
// behavior — and in practice forensic reads happen when the ring is
// quiescent (the owner is parked, wedged, or joined). Recording is two
// relaxed stores plus one release store: cheap enough to leave attached.
//
// The buffer *overwrites*: once `capacity` events have been recorded, each
// new event replaces the oldest. A stall dump therefore shows the last-K
// events per thread, which is exactly the forensic question ("what was
// this thread doing when the ring went quiet?").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"

namespace hring::telemetry {

/// What happened. The vocabulary covers the in-host runtime's worker loop
/// (runtime/inhost/inhost_ring.cpp); `arg` is kind-specific (see each
/// entry).
enum class FlightEventKind : std::uint8_t {
  kJoin,             ///< worker arrives at the start latch; arg = pid
  kStart,            ///< start latch released (all arrived); arg = 0
  kFire,             ///< one firing begins; arg = the worker's firing index
  kSend,             ///< frame enqueued; arg = the frame's send_ts_ns
  kRecv,             ///< frame consumed; arg = the frame's send_ts_ns
  kWireReject,       ///< decoder refused a frame; arg = running reject count
  kBeat,             ///< liveness beat (coalesced: first beat per idle spell)
  kBackoffEscalate,  ///< spin/yield ladder exhausted; arg = 0
  kPark,             ///< about to futex-park on the doorbell; arg = ticket
  kDoorbellWake,     ///< doorbell wait returned; arg = ticket observed
  kHalt,             ///< the process halted; arg = 0
  kExit,             ///< worker loop exits; arg = 0
};

inline constexpr std::size_t kNumFlightEventKinds = 12;

/// "park", "doorbell-wake", ... — stable names for dumps and tests.
[[nodiscard]] const char* flight_event_kind_name(FlightEventKind kind);

/// One decoded event, as returned to forensic readers.
struct FlightEvent {
  std::uint64_t ts_ns = 0;  ///< monotonic clock at record time
  FlightEventKind kind = FlightEventKind::kJoin;
  std::uint64_t arg = 0;  ///< kind-specific payload (56 significant bits)
};

/// One thread's overwriting event ring. Single writer (the owning
/// thread); any thread may read a snapshot.
class FlightRing {
 public:
  /// Rebinds to `capacity` slots (rounded up to a power of two, minimum
  /// 16). Not thread-safe: call before the writer starts.
  void reset(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Writer side: records one event. Two relaxed stores into the slot,
  /// one release store publishing the cursor — no allocation, no fence
  /// beyond the publication, safe to call at firing rate.
  // hring-lint: hot-path
  // hring-role: consumer
  void record(FlightEventKind kind, std::uint64_t arg) {
    const std::uint64_t at = cursor_.load(std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<std::size_t>(at) & mask_];
    slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
    slot.word.store(pack(kind, arg), std::memory_order_relaxed);
    cursor_.store(at + 1, std::memory_order_release);
  }

  /// Events ever recorded (not capped by capacity). Reader side.
  // hring-role: watchdog
  [[nodiscard]] std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_acquire);
  }

  /// Reader side: the retained events, oldest first (at most capacity()
  /// of them). See the header comment for the tearing caveat on a ring
  /// whose writer is still running.
  // hring-role: watchdog
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Reader side: the kind of the last published event, or kJoin on an
  /// empty ring. One acquire load plus one relaxed slot read — cheap
  /// enough for the watchdog to poll. The slot behind the published
  /// cursor is stable (the writer's next store targets the slot *at*
  /// the cursor), so this never reads a half-written event.
  // hring-role: watchdog
  [[nodiscard]] FlightEventKind last_kind() const {
    const std::uint64_t end = cursor_.load(std::memory_order_acquire);
    if (end == 0) return FlightEventKind::kJoin;
    const Slot& slot = slots_[static_cast<std::size_t>(end - 1) & mask_];
    return static_cast<FlightEventKind>(
        slot.word.load(std::memory_order_relaxed) & 0xFF);
  }

 private:
  /// kind in the low byte, arg (truncated to 56 bits) above it — one
  /// atomic word, so kind and arg can never tear against each other.
  [[nodiscard]] static std::uint64_t pack(FlightEventKind kind,
                                          std::uint64_t arg) {
    return (arg << 8) | static_cast<std::uint64_t>(kind);
  }

  [[nodiscard]] static std::uint64_t now_ns();

  struct Slot {
    // hring-shared: consumer,watchdog
    std::atomic<std::uint64_t> ts_ns{0};
    // hring-shared: consumer,watchdog
    std::atomic<std::uint64_t> word{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  /// Monotonic event count; slot index is cursor & mask. Own cache line:
  /// the reader polls it while the writer publishes.
  // hring-shared: consumer->watchdog
  alignas(64) std::atomic<std::uint64_t> cursor_{0};
};

/// The per-run recorder: one FlightRing per worker thread. Detached (the
/// default) it holds no storage and recording is skipped entirely; the
/// runtime only dereferences rings when attached.
class FlightRecorder {
 public:
  /// Attaches `threads` rings of `capacity` events each.
  void reset(std::size_t threads, std::size_t capacity);

  /// Back to the detached state (drops all storage).
  void detach();

  [[nodiscard]] bool attached() const { return threads_ > 0; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  [[nodiscard]] FlightRing& ring(std::size_t tid) {
    HRING_EXPECTS(tid < threads_);
    return rings_[tid];
  }
  [[nodiscard]] const FlightRing& ring(std::size_t tid) const {
    HRING_EXPECTS(tid < threads_);
    return rings_[tid];
  }

 private:
  std::unique_ptr<FlightRing[]> rings_;
  std::size_t threads_ = 0;
};

}  // namespace hring::telemetry
