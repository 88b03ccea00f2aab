#include "runtime/inhost/forensics.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>

#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_links.hpp"
#include "support/json.hpp"
#include "telemetry/trace_writer.hpp"

namespace hring::runtime {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::flight_event_kind_name;

/// The flight trace renders worker tracks under one trace-pid group.
constexpr int kFlightWorkerGroup = 1;

/// Width of the thin "send"/"recv"/"wake" slices, microseconds: wide
/// enough for Perfetto to bind flow arrows to them, narrow enough to read
/// as point events.
constexpr double kThinSliceUs = 1.0;

[[nodiscard]] double to_micros(std::uint64_t ts_ns, std::uint64_t base_ns) {
  return static_cast<double>(ts_ns - base_ns) / 1000.0;
}

/// Flow ids tie one frame's send, doorbell wake, and recv together:
/// "<link port>:<send_ts_ns>". The sender's out-port and the receiver's
/// in-port are the same link, so both sides compute the same id.
[[nodiscard]] std::string flow_id(std::size_t port, std::uint64_t send_ts) {
  return std::to_string(port) + ":" + std::to_string(send_ts);
}

void flow_event(telemetry::TraceEventWriter& trace, const char* ph,
                double ts_micros, std::uint64_t tid, const std::string& id) {
  support::JsonWriter& json =
      trace.begin_event("msg", ph, ts_micros, kFlightWorkerGroup, tid);
  json.key("cat").value("flow");
  json.key("id").value(id);
  if (ph[0] == 'f') json.key("bp").value("e");
  trace.end_event();
}

void thin_slice(telemetry::TraceEventWriter& trace, const char* name,
                double ts_micros, std::uint64_t tid, std::uint64_t arg) {
  support::JsonWriter& json =
      trace.begin_event(name, "X", ts_micros, kFlightWorkerGroup, tid);
  json.key("dur").value(kThinSliceUs);
  json.key("cat").value("event");
  json.key("args").begin_object();
  json.key("arg").value(arg);
  json.end_object();
  trace.end_event();
}

void span_slice(telemetry::TraceEventWriter& trace, const char* name,
                double begin_micros, double end_micros, std::uint64_t tid,
                bool unresolved) {
  support::JsonWriter& json = trace.begin_event(
      name, "X", begin_micros, kFlightWorkerGroup, tid);
  json.key("dur").value(std::max(0.0, end_micros - begin_micros));
  json.key("cat").value("state");
  json.key("args").begin_object();
  json.key("unresolved").value(unresolved);
  json.end_object();
  trace.end_event();
}

void instant(telemetry::TraceEventWriter& trace, const char* name,
             double ts_micros, std::uint64_t tid, std::uint64_t arg) {
  support::JsonWriter& json =
      trace.begin_event(name, "i", ts_micros, kFlightWorkerGroup, tid);
  json.key("s").value("t");
  json.key("cat").value("event");
  json.key("args").begin_object();
  json.key("arg").value(arg);
  json.end_object();
  trace.end_event();
}

}  // namespace

const char* ForensicThread::last_event_name() const {
  if (events.empty()) return "none";
  return flight_event_kind_name(events.back().kind);
}

std::string ForensicReport::summary() const {
  std::string line = verdict;
  if (!wedged.empty()) {
    line += ":";
    for (const sim::ProcessId pid : wedged) {
      const ForensicThread& thread = threads[pid];
      line += " p" + std::to_string(pid) + " wedged (last event: " +
              thread.last_event_name() + ")";
    }
  } else if (verdict == "stall") {
    line += ": all threads parked (protocol-level deadlock)";
  }
  std::size_t parked = 0;
  std::size_t exited = 0;
  for (const ForensicThread& thread : threads) {
    parked += thread.parked ? 1 : 0;
    exited += thread.exited ? 1 : 0;
  }
  line += "; " + std::to_string(parked) + "/" +
          std::to_string(threads.size()) + " parked, " +
          std::to_string(exited) + "/" + std::to_string(threads.size()) +
          " exited";
  return line;
}

ForensicReport collect_forensics(const telemetry::FlightRecorder& recorder,
                                 const InHostLinks& links,
                                 std::span<const std::uint64_t> beats,
                                 std::string verdict, std::uint64_t quiet_ms,
                                 const ForensicCounters& counters) {
  HRING_EXPECTS(recorder.attached());
  const std::size_t n = recorder.threads();
  HRING_EXPECTS(beats.size() == n);
  ForensicReport report;
  report.verdict = std::move(verdict);
  report.quiet_ms = quiet_ms;
  report.collected_at_ns = monotonic_ns();
  report.counters = counters;
  report.threads.reserve(n);
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    const std::size_t in_port = ring::left(pid, n);
    ForensicThread thread;
    thread.pid = pid;
    thread.beats = beats[pid];
    thread.events = recorder.ring(pid).snapshot();
    thread.events_recorded = recorder.ring(pid).recorded();
    thread.events_dropped = thread.events_recorded - thread.events.size();
    thread.in_depth = links.depth(in_port);
    thread.out_depth = links.depth(pid);
    thread.in_pending_bytes = links.pending_bytes(in_port);
    thread.wire_rejects = links.rejects(in_port);
    if (!thread.events.empty()) {
      const FlightEventKind last = thread.events.back().kind;
      thread.parked = last == FlightEventKind::kPark;
      thread.exited = last == FlightEventKind::kExit;
    }
    if (!thread.parked && !thread.exited) report.wedged.push_back(pid);
    report.threads.push_back(std::move(thread));
  }
  return report;
}

void write_forensics_json(std::ostream& out, const ForensicReport& report) {
  support::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("hring-forensics/1");
  json.key("verdict").value(report.verdict);
  json.key("summary").value(report.summary());
  json.key("quiet_ms").value(report.quiet_ms);
  json.key("collected_at_ns").value(report.collected_at_ns);
  json.key("counters").begin_object();
  json.key("actions").value(report.counters.actions);
  json.key("messages_sent").value(report.counters.messages_sent);
  json.key("messages_received").value(report.counters.messages_received);
  json.key("wire_rejects").value(report.counters.wire_rejects);
  json.end_object();
  json.key("wedged").begin_array();
  for (const sim::ProcessId pid : report.wedged) {
    json.value(static_cast<std::uint64_t>(pid));
  }
  json.end_array();
  json.key("threads").begin_array();
  for (const ForensicThread& thread : report.threads) {
    json.begin_object();
    json.key("pid").value(static_cast<std::uint64_t>(thread.pid));
    json.key("beats").value(thread.beats);
    json.key("events_recorded").value(thread.events_recorded);
    json.key("events_dropped").value(thread.events_dropped);
    json.key("in_depth").value(thread.in_depth);
    json.key("out_depth").value(thread.out_depth);
    json.key("in_pending_bytes").value(thread.in_pending_bytes);
    json.key("wire_rejects").value(thread.wire_rejects);
    json.key("parked").value(thread.parked);
    json.key("exited").value(thread.exited);
    json.key("last_event").value(thread.last_event_name());
    json.key("events").begin_array();
    for (const FlightEvent& event : thread.events) {
      json.begin_object();
      json.key("ts_ns").value(event.ts_ns);
      json.key("kind").value(flight_event_kind_name(event.kind));
      json.key("arg").value(event.arg);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

void write_flight_trace_json(std::ostream& out,
                             const ForensicReport& report) {
  telemetry::TraceEventWriter trace(out);
  const std::size_t n = report.threads.size();

  // Normalize timestamps so the trace starts at 0 even though the clock
  // is raw monotonic nanoseconds.
  std::uint64_t base_ns = report.collected_at_ns;
  for (const ForensicThread& thread : report.threads) {
    for (const FlightEvent& event : thread.events) {
      base_ns = std::min(base_ns, event.ts_ns);
    }
  }
  const double end_micros = to_micros(report.collected_at_ns, base_ns);

  trace.name_group(kFlightWorkerGroup, "workers (" + report.verdict + ")");
  for (const ForensicThread& thread : report.threads) {
    std::string label = "p";
    label += std::to_string(thread.pid);
    if (std::find(report.wedged.begin(), report.wedged.end(), thread.pid) !=
        report.wedged.end()) {
      label += " [WEDGED]";
    }
    trace.name_track(kFlightWorkerGroup, thread.pid, label);
  }

  for (const ForensicThread& thread : report.threads) {
    const std::uint64_t tid = thread.pid;
    const std::size_t in_port = ring::left(thread.pid, n);
    const std::size_t out_port = thread.pid;
    // Open park/backoff intervals, closed by the matching wake/park (or
    // by the collection edge when the run died inside one).
    std::optional<double> backoff_begin;
    std::optional<double> park_begin;
    // The doorbell wake whose causing frame hasn't been received yet: the
    // first recv after a wake closes the send → wake → recv flow chain.
    std::optional<double> pending_wake;
    for (const FlightEvent& event : thread.events) {
      const double ts = to_micros(event.ts_ns, base_ns);
      switch (event.kind) {
        case FlightEventKind::kSend: {
          thin_slice(trace, "send", ts, tid, event.arg);
          flow_event(trace, "s", ts, tid, flow_id(out_port, event.arg));
          break;
        }
        case FlightEventKind::kRecv: {
          thin_slice(trace, "recv", ts, tid, event.arg);
          const std::string id = flow_id(in_port, event.arg);
          if (pending_wake.has_value()) {
            // Attribute the wake to this frame: the frame at the head
            // right after waking is the one whose publication rang the
            // doorbell.
            flow_event(trace, "t", *pending_wake, tid, id);
            pending_wake.reset();
          }
          flow_event(trace, "f", ts, tid, id);
          break;
        }
        case FlightEventKind::kBackoffEscalate: {
          backoff_begin = ts;
          break;
        }
        case FlightEventKind::kPark: {
          if (backoff_begin.has_value()) {
            span_slice(trace, "backoff", *backoff_begin, ts, tid, false);
            backoff_begin.reset();
          }
          park_begin = ts;
          break;
        }
        case FlightEventKind::kDoorbellWake: {
          if (park_begin.has_value()) {
            span_slice(trace, "parked", *park_begin, ts, tid, false);
            park_begin.reset();
          }
          thin_slice(trace, "wake", ts, tid, event.arg);
          pending_wake = ts;
          break;
        }
        case FlightEventKind::kFire:
        case FlightEventKind::kJoin:
        case FlightEventKind::kStart:
        case FlightEventKind::kWireReject:
        case FlightEventKind::kBeat:
        case FlightEventKind::kHalt:
        case FlightEventKind::kExit: {
          instant(trace, flight_event_kind_name(event.kind), ts, tid,
                  event.arg);
          break;
        }
      }
    }
    // A thread that died parked (the normal stall picture) or mid-backoff
    // renders as a span running to the collection edge.
    if (park_begin.has_value()) {
      span_slice(trace, "parked", *park_begin, end_micros, tid, true);
    }
    if (backoff_begin.has_value()) {
      span_slice(trace, "backoff", *backoff_begin, end_micros, tid, true);
    }
    // Queue depth at collection time, as a counter sample per track.
    support::JsonWriter& json = trace.begin_event(
        "in_depth p" + std::to_string(thread.pid), "C", end_micros,
        kFlightWorkerGroup, tid);
    json.key("args").begin_object();
    json.key("frames").value(thread.in_depth);
    json.end_object();
    trace.end_event();
  }

  trace.finish(out);
}

}  // namespace hring::runtime
