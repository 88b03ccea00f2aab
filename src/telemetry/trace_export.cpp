#include "telemetry/trace_export.hpp"

#include <ostream>
#include <string>

#include "ring/labeled_ring.hpp"
#include "support/json.hpp"
#include "telemetry/trace_writer.hpp"

namespace hring::telemetry {

namespace {

using support::JsonWriter;

double to_micros(double time_units) {
  return time_units * kTraceMicrosPerTimeUnit;
}

}  // namespace

void write_trace_json(std::ostream& out,
                      const TelemetryObserver& telemetry) {
  TraceEventWriter trace(out);
  const std::size_t n = telemetry.process_count();

  // Track naming. Processes and links are separate trace-pid groups so
  // Perfetto renders them as two collapsible lanes.
  trace.name_group(kTraceProcessGroup, "processes");
  trace.name_group(kTraceLinkGroup, "links");
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    std::string proc_name = "p";
    proc_name += std::to_string(pid);
    proc_name += " (label ";
    proc_name += std::to_string(telemetry.process_label(pid));
    proc_name += ')';
    trace.name_track(kTraceProcessGroup, pid, proc_name);
    const std::string link_name =
        "link p" + std::to_string(pid) + " -> p" +
        std::to_string(ring::right(pid, n));
    trace.name_track(kTraceLinkGroup, pid, link_name);
  }

  // B_k phase spans: complete ("X") events on the owning process's track.
  for (const PhaseSpan& span : telemetry.phase_spans()) {
    const std::string name = "phase " + std::to_string(span.phase) + " g=" +
                             std::to_string(span.guest) +
                             (span.active ? "*" : "");
    JsonWriter& json = trace.begin_event(
        name, "X", to_micros(span.begin_time), kTraceProcessGroup, span.pid);
    json.key("dur").value(to_micros(span.end_time - span.begin_time));
    json.key("cat").value("phase");
    json.key("args").begin_object();
    json.key("phase").value(static_cast<std::uint64_t>(span.phase));
    json.key("guest").value(span.guest);
    json.key("active").value(span.active);
    json.key("closed").value(span.closed);
    json.end_object();
    trace.end_event();
  }

  // Deactivations and barrier starts: instant ("i") ticks.
  for (const Marker& marker : telemetry.markers()) {
    const bool deactivate = marker.kind == Marker::Kind::kDeactivate;
    JsonWriter& json =
        trace.begin_event(deactivate ? "deactivate" : "phase barrier", "i",
                          to_micros(marker.time), kTraceProcessGroup,
                          marker.pid);
    json.key("s").value("t");
    json.key("cat").value("marker");
    trace.end_event();
  }

  // Active-process census as a counter track: starts at the number of
  // phase-1 entries and steps down at each deactivation (markers are
  // recorded in firing order, i.e. chronologically).
  std::uint64_t active = 0;
  for (const PhaseSpan& span : telemetry.phase_spans()) {
    if (span.phase == 1) ++active;
  }
  if (active > 0) {
    const auto emit_active = [&](double time, std::uint64_t value) {
      JsonWriter& json = trace.begin_event("active processes", "C",
                                           to_micros(time), kTraceProcessGroup,
                                           0);
      json.key("args").begin_object();
      json.key("active").value(value);
      json.end_object();
      trace.end_event();
    };
    emit_active(0.0, active);
    for (const Marker& marker : telemetry.markers()) {
      if (marker.kind != Marker::Kind::kDeactivate) continue;
      if (active > 0) --active;
      emit_active(marker.time, active);
    }
  }

  // Per-process space_bits as counter tracks (sampled on change).
  for (const SpaceSample& sample : telemetry.space_samples()) {
    const std::string name = "space_bits p" + std::to_string(sample.pid);
    JsonWriter& json = trace.begin_event(name, "C", to_micros(sample.time),
                                         kTraceProcessGroup, sample.pid);
    json.key("args").begin_object();
    json.key("bits").value(static_cast<std::uint64_t>(sample.bits));
    json.end_object();
    trace.end_event();
  }

  // Message spans: complete events on the carrying link's track. A span
  // with equal send and receive times (step engine, same-step delivery)
  // still renders as a zero-width slice.
  for (const MessageSpan& span : telemetry.message_spans()) {
    JsonWriter& json =
        trace.begin_event(sim::kind_name(span.kind), "X",
                          to_micros(span.send_time), kTraceLinkGroup,
                          span.from);
    json.key("dur").value(to_micros(span.recv_time - span.send_time));
    json.key("cat").value("message");
    json.key("args").begin_object();
    json.key("label").value(span.label);
    json.end_object();
    trace.end_event();
  }

  trace.finish(out);
}

void write_metrics_json(std::ostream& out, const MetricsRegistry& registry) {
  JsonWriter json(out);
  registry.to_json(json);
  out << '\n';
}

}  // namespace hring::telemetry
