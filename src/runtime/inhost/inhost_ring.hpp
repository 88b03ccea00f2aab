// The ring runtime: one OS thread per process, lock-free SPSC byte
// links, messages as hardened wire frames.
//
// The same Process code that runs in the simulators runs here, with the
// OS scheduler supplying the asynchrony. Port i is the fixed link
// p_i → p_{i+1} of §II's ring; every worker waits on one latch until all
// n have arrived, so none fires before the whole ring is up. The data
// plane is runtime/inhost/inhost_links.hpp (no locks, no in-memory
// Message hand-off — every message is encoded to bytes and decoded
// back), workers emit liveness beats, and a watchdog declares deadlock
// after a quiet period with no firing, as the engines report a stalled
// run.
//
// With record_trace on, each worker logs every message it consumes — the
// received history of its in-link. Every guard but the init action waits
// on the in-link head and only the owner pops it, so under §II's FIFO
// links these histories are the same under every fair schedule; the
// conformance harness (runtime/conformance.hpp) compares them with a
// simulator run's.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ring/labeled_ring.hpp"
#include "runtime/inhost/forensics.hpp"
#include "sim/engine.hpp"
#include "sim/run_result.hpp"
#include "telemetry/metrics.hpp"

namespace hring::runtime {

class InHostLinks;

struct InHostConfig {
  /// Per-process firing budget (livelock guard).
  std::uint64_t max_actions_per_process = 1'000'000;
  /// Watchdog quiet period (milliseconds of global inactivity) before a
  /// stalled run is declared deadlocked. Treated as a floor: the runtime
  /// raises it to 4ms × n so that scheduling latency on an oversubscribed
  /// host is never mistaken for a deadlock.
  std::uint64_t quiet_period_ms = 500;
  /// Record each link's received messages into
  /// InHostResult::link_histories (the conformance harness turns this
  /// on). Costs one vector push per consumed message.
  bool record_trace = false;
  /// Attach the per-thread flight recorder (telemetry/flight_recorder.hpp).
  /// Recording costs a few relaxed stores per loop event; on watchdog
  /// stall or run completion the rings are merged into
  /// InHostResult::forensics.
  bool flight_recorder = false;
  /// Retained events per thread when the recorder is attached (rounded up
  /// to a power of two; the ring overwrites its oldest beyond this).
  std::size_t flight_capacity = 256;
  /// Test hook: invoked with the sized data plane before any worker
  /// starts — the wire-path mutation tests pre-seed corrupted frames
  /// here. Election code never sets this.
  std::function<void(InHostLinks&)> pre_start_poke;
  /// Test hook: each worker calls this right after the election starts,
  /// before its first firing; the second argument polls the shutdown
  /// flag. The injected-stall forensics tests wedge a worker here (spin
  /// on the poll without beating). Election code never sets this.
  std::function<void(sim::ProcessId, const std::function<bool()>&)>
      post_start_hook;
};

struct InHostResult {
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::vector<sim::ProcessSnapshot> processes;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t actions = 0;
  /// Frames the hardened decoder refused (0 on healthy links; mutation
  /// tests inject and count them here).
  std::uint64_t wire_rejects = 0;
  /// Sends abandoned because shutdown arrived while backpressured.
  std::uint64_t sends_abandoned = 0;
  /// Peak per-process space over the run, in bits (Theorem 2/4 metric).
  std::size_t peak_space_bits = 0;
  /// Wall-clock duration of the election (all workers arrived at the
  /// start latch to last worker exit), in nanoseconds.
  std::uint64_t elapsed_ns = 0;
  /// Merged per-worker telemetry: inhost_message_latency_ns histogram,
  /// reject/abandon counters.
  telemetry::MetricsRegistry metrics;
  /// link_histories[i]: the messages p_{i+1} consumed from link
  /// p_i -> p_{i+1}, in order (empty unless config.record_trace).
  std::vector<std::vector<sim::Message>> link_histories;
  /// Present iff config.flight_recorder: the merged per-thread flight
  /// rings plus the watchdog's verdict. Collected at stall-detection time
  /// (before workers are woken for shutdown, so the park picture is the
  /// stall picture) or, on a clean finish, after the workers join.
  std::optional<ForensicReport> forensics;

  /// The unique leader's pid, if exactly one process has isLeader.
  [[nodiscard]] std::optional<sim::ProcessId> leader_pid() const {
    return sim::unique_leader(processes);
  }
};

/// Runs one election on the in-host runtime. Blocks until the run
/// finishes. Spawns ring.size() worker threads plus a watchdog.
[[nodiscard]] InHostResult run_inhost(const ring::LabeledRing& ring,
                                      const sim::ProcessFactory& factory,
                                      const InHostConfig& config = {});

}  // namespace hring::runtime
