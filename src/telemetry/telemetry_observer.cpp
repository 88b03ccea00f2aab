#include "telemetry/telemetry_observer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "ring/labeled_ring.hpp"

namespace hring::telemetry {

namespace {

// Fixed bucket layouts. Latencies: one normalized time unit is the §II
// worst case per hop, so [1, 2) is the theorems' adversary bucket and the
// sub-unit buckets resolve the randomized delay models; the step engine
// records hop latency in configuration steps, spilling into the powers of
// two. Depths/space/durations: power-of-two ladders wide enough for the
// benchmark grids.
constexpr std::array<double, 9> kLatencyEdges = {0.125, 0.25, 0.5,  0.75, 1.0,
                                                2.0,   4.0,  8.0, 16.0};
constexpr std::array<double, 9> kLinkDepthEdges = {1,  2,  4,   8,  16,
                                                   32, 64, 128, 256};
constexpr std::array<double, 10> kSpaceEdges = {8,   16,  32,   64,   128,
                                                256, 512, 1024, 2048, 4096};
constexpr std::array<double, 10> kPhaseDurationEdges = {1,  2,  4,   8,   16,
                                                        32, 64, 128, 256, 512};

}  // namespace

TelemetryObserver::TelemetryObserver(Config config) : config_(config) {}

int TelemetryObserver::bk_action_number(std::string_view action) {
  if (action.size() < 2 || action.size() > 3 || action[0] != 'B') return 0;
  if (action[1] < '0' || action[1] > '9') return 0;
  int number = action[1] - '0';
  if (action.size() == 3) {
    if (action[2] < '0' || action[2] > '9') return 0;
    number = number * 10 + (action[2] - '0');
  }
  return number >= 1 && number <= 11 ? number : 0;
}

CounterId TelemetryObserver::action_counter_slow(std::string_view action) {
  std::string name = "action.";
  name += action;
  const CounterId id = metrics_.counter(name);
  action_slots_.push_back(ActionSlot{action.data(), id});
  return id;
}

void TelemetryObserver::on_start(const sim::ExecutionView& view) {
  const std::size_t n = view.process_count();
  if (!ids_bound_) {
    latency_hist_ =
        metrics_.histogram(kMessageLatencyHistogram, kLatencyEdges);
    link_depth_hist_ =
        metrics_.histogram(kLinkDepthHistogram, kLinkDepthEdges);
    space_hist_ = metrics_.histogram(kSpaceBitsHistogram, kSpaceEdges);
    phase_hist_ =
        metrics_.histogram(kPhaseDurationHistogram, kPhaseDurationEdges);
    actions_counter_ = metrics_.counter("actions");
    unmatched_receives_ = metrics_.counter("telemetry.unmatched_receives");
    action_slots_.reserve(32);
    ids_bound_ = true;
  }

  labels_.assign(n, 0);
  std::uint64_t max_label = 0;
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    labels_[pid] = view.process(pid).id().value();
    max_label = std::max(max_label, labels_[pid]);
  }
  label_bits_ = std::max<std::size_t>(1, std::bit_width(max_label));

  pending_.resize(n);
  for (sim::Link& link : pending_) link.reset();
  phase_tracks_.assign(n, PhaseTrack{});
  last_space_bits_.assign(n, 0);

  phase_spans_.clear();
  phase_spans_.reserve(4 * n);
  message_spans_.clear();
  markers_.clear();
  space_samples_.clear();
  space_samples_.reserve(2 * n);
  dropped_message_spans_ = 0;

  // Seed the space series: every process occupies its initial footprint
  // before the first firing.
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    const std::size_t bits = view.process(pid).space_bits(label_bits_);
    last_space_bits_[pid] = bits;
    space_samples_.push_back(SpaceSample{pid, view.current_time(), bits});
    metrics_.record(space_hist_, static_cast<double>(bits));
  }
}

void TelemetryObserver::open_phase(sim::ProcessId pid, std::uint64_t guest,
                                   bool active, double time,
                                   std::uint64_t step) {
  PhaseTrack& track = phase_tracks_[pid];
  ++track.phase;
  track.open_span = phase_spans_.size();
  PhaseSpan span;
  span.pid = pid;
  span.phase = track.phase;
  span.guest = guest;
  span.active = active;
  span.begin_time = time;
  span.begin_step = step;
  phase_spans_.push_back(span);
}

void TelemetryObserver::close_phase(sim::ProcessId pid, double time,
                                    std::uint64_t step) {
  PhaseTrack& track = phase_tracks_[pid];
  if (track.open_span == kNoSpan) return;
  PhaseSpan& span = phase_spans_[track.open_span];
  span.end_time = time;
  span.end_step = step;
  span.closed = true;
  track.open_span = kNoSpan;
  metrics_.record(phase_hist_, time - span.begin_time);
}

// hring-lint: hot-path
void TelemetryObserver::on_action(const sim::ExecutionView& view,
                                  const sim::ActionEvent& event) {
  const sim::ProcessId pid = event.pid;
  metrics_.add(actions_counter_);

  // Per-action firing counter. Interned names make the common case a
  // pointer scan; the slow path runs once per distinct label.
  if (!event.action.empty()) {
    CounterId action_id{};
    bool found = false;
    const char* key = event.action.data();
    for (const ActionSlot& slot : action_slots_) {
      if (slot.key == key) {
        action_id = slot.id;
        found = true;
        break;
      }
    }
    if (!found) action_id = action_counter_slow(event.action);
    metrics_.add(action_id);
  }

  // Message receive: FIFO-match against the mirrored send queue of the
  // incoming link (p_{pid-1} -> p_pid).
  if (event.consumed.has_value()) {
    const std::size_t in_link = ring::left(pid, pending_.size());
    sim::Link& sends = pending_[in_link];
    if (sends.empty()) {
      // A fault model rewrote the wire under us (drops/duplicates desync
      // the mirror); count instead of guessing a latency.
      metrics_.add(unmatched_receives_);
    } else {
      const double send_time = sends.head_ready_time();
      const sim::Message sent = sends.pop();
      metrics_.record(latency_hist_, event.time - send_time);
      if (message_spans_.size() < config_.max_message_spans) {
        MessageSpan span;
        span.from = in_link;
        span.kind = sent.kind;
        span.label = sent.label.value();
        span.send_time = send_time;
        span.recv_time = event.time;
        message_spans_.push_back(span);
      } else {
        ++dropped_message_spans_;
      }
    }
  }

  // Message sends: mirror onto the out-link queue for later matching, and
  // sample the out-link's depth. The engines append before notifying and
  // nothing pops this link until the observer returns, so the sample sees
  // the occupancy at its post-send maximum — the histogram's max equals
  // Stats::peak_link_occupancy exactly. Sampling here (once per sending
  // action, O(1)) rather than scanning every link at each step end keeps
  // the attached cost flat on the event engine, where a "step" is a
  // single process drain.
  if (!event.sent.empty()) {
    for (const sim::Message& msg : event.sent) {
      pending_[pid].push(msg, event.time);
    }
    metrics_.record(link_depth_hist_,
                    static_cast<double>(view.out_link(pid).size()));
  }

  // B_k phase structure, reconstructed purely from the note_action labels
  // and the consumed/sent payloads (no downcast into the algorithm).
  switch (bk_action_number(event.action)) {
    case 1:  // B1: enter phase 1 holding the own label, active.
      open_phase(pid, labels_[pid], /*active=*/true, event.time, event.step);
      break;
    case 4:  // B4: deactivation — the process leaves the competition.
      markers_.push_back(
          Marker{Marker::Kind::kDeactivate, pid, event.time, event.step});
      break;
    case 5:  // B5: this process starts the PHASE_SHIFT barrier.
      markers_.push_back(
          Marker{Marker::Kind::kBarrier, pid, event.time, event.step});
      break;
    case 6:  // B6: adopt the shifted guest, still active.
      close_phase(pid, event.time, event.step);
      if (event.consumed.has_value()) {
        open_phase(pid, event.consumed->label.value(), /*active=*/true,
                   event.time, event.step);
      }
      break;
    case 8:  // B8: adopt the shifted guest, passive.
      close_phase(pid, event.time, event.step);
      if (event.consumed.has_value()) {
        open_phase(pid, event.consumed->label.value(), /*active=*/false,
                   event.time, event.step);
      }
      break;
    case 9:  // B9: the winner's final phase (guest back to the own label).
      close_phase(pid, event.time, event.step);
      open_phase(pid, labels_[pid], /*active=*/true, event.time, event.step);
      break;
    case 10:  // B10/B11: the process halts; its phase timeline ends.
    case 11:
      close_phase(pid, event.time, event.step);
      break;
    default:
      break;
  }

  // Space-over-time series: sample on change only.
  const std::size_t bits = view.process(pid).space_bits(label_bits_);
  if (bits != last_space_bits_[pid]) {
    last_space_bits_[pid] = bits;
    space_samples_.push_back(SpaceSample{pid, event.time, bits});
    metrics_.record(space_hist_, static_cast<double>(bits));
  }
}

void TelemetryObserver::on_finish(const sim::ExecutionView& view) {
  // Phases still open when the run stopped keep closed == false but get
  // the finish timestamp as their end, so exported spans stay bounded.
  for (sim::ProcessId pid = 0; pid < phase_tracks_.size(); ++pid) {
    const PhaseTrack& track = phase_tracks_[pid];
    if (track.open_span != kNoSpan) {
      PhaseSpan& span = phase_spans_[track.open_span];
      span.end_time = view.current_time();
      span.end_step = view.current_step();
    }
  }
}

}  // namespace hring::telemetry
