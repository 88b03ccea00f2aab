// Stall forensics for the in-host runtime.
//
// When the progress watchdog declares a stall (or a run finishes with the
// flight recorder attached), collect_forensics() freezes the evidence into
// a ForensicReport: per-thread last-K flight events, park state, queue
// depths, beat counters, and a verdict naming the wedged process(es) — a
// thread is wedged when its ring's last event is neither a park nor an
// exit, i.e. it stopped making progress somewhere *other* than the two
// places a healthy quiet worker can be. The report serializes two ways:
//
//   write_forensics_json  — the "hring-forensics/1" report: machine- and
//                           human-readable, what `--flight-out` writes and
//                           what the injected-stall test asserts on.
//   write_flight_trace_json — a Chrome trace-event / Perfetto document of
//                           the real threaded execution: one track per OS
//                           thread, park/backoff spans, doorbell wakes,
//                           and send→recv flow arrows matched by the wire
//                           frames' send_ts_ns.
//
// Collection is watchdog/main-thread code: it reads the single-writer
// flight rings (cursor acquire, slots relaxed — see
// telemetry/flight_recorder.hpp for the discipline) and the consumer-owned
// link scratch. Call it when the writers are quiescent (parked, wedged, or
// joined): that is exactly the stall and end-of-run situations it exists
// for.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "telemetry/flight_recorder.hpp"

namespace hring::runtime {

class InHostLinks;

/// One worker thread's forensic view.
struct ForensicThread {
  sim::ProcessId pid = 0;
  /// Liveness beats observed (one per idle-loop pass of the worker).
  std::uint64_t beats = 0;
  /// Flight events ever recorded; `events` holds the retained tail.
  std::uint64_t events_recorded = 0;
  /// Events the overwriting ring dropped (recorded - retained).
  std::uint64_t events_dropped = 0;
  /// Complete frames queued on the thread's in/out links at collection.
  std::uint64_t in_depth = 0;
  std::uint64_t out_depth = 0;
  /// Bytes pending on the in-link (catches trailing partial frames).
  std::uint64_t in_pending_bytes = 0;
  /// Frames this thread's decoder refused.
  std::uint64_t wire_rejects = 0;
  /// True when the last retained event is a park (thread idle on the
  /// doorbell futex).
  bool parked = false;
  /// True when the last retained event is an exit (worker loop done).
  bool exited = false;
  /// Retained flight events, oldest first.
  std::vector<telemetry::FlightEvent> events;

  [[nodiscard]] const char* last_event_name() const;
};

/// Run-level counters snapshotted at collection time.
struct ForensicCounters {
  std::uint64_t actions = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t wire_rejects = 0;
};

struct ForensicReport {
  /// "stall" (watchdog verdict), "completed", "budget-exhausted", or
  /// "divergence" (stamped by the conformance harness).
  std::string verdict;
  /// The effective watchdog quiet period (after the 4ms × n floor).
  std::uint64_t quiet_ms = 0;
  /// Monotonic nanoseconds at collection (the trace's right edge).
  std::uint64_t collected_at_ns = 0;
  ForensicCounters counters;
  /// Pids whose last event is neither park nor exit — the processes the
  /// watchdog holds responsible. Empty on a stall means every thread was
  /// parked: a protocol-level deadlock, not a wedged thread.
  std::vector<sim::ProcessId> wedged;
  std::vector<ForensicThread> threads;

  /// One-line human verdict, e.g. "stall: p2 wedged (last event: start)".
  [[nodiscard]] std::string summary() const;
};

/// Freezes the evidence. `recorder` must be attached; `beats` holds each
/// worker's beat count; the caller names the verdict ("stall",
/// "completed", ...).
[[nodiscard]] ForensicReport collect_forensics(
    const telemetry::FlightRecorder& recorder, const InHostLinks& links,
    std::span<const std::uint64_t> beats, std::string verdict,
    std::uint64_t quiet_ms, const ForensicCounters& counters);

/// Serializes the "hring-forensics/1" JSON report.
void write_forensics_json(std::ostream& out, const ForensicReport& report);

/// Serializes the Chrome trace-event / Perfetto document of the recorded
/// execution (one track per thread; park/backoff spans; send→recv flows).
void write_flight_trace_json(std::ostream& out, const ForensicReport& report);

}  // namespace hring::runtime
