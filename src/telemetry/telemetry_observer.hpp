// hring-telemetry: the observer that turns a run into timelines.
//
// TelemetryObserver plugs into the engines' ObserverList (both the step
// engine and the discrete-event engine) and distills every firing into
//
//   * counters      — per-action firing counts ("action.B3", ...),
//                     matched/unmatched message receives;
//   * histograms    — message latency in normalized time units, link queue
//                     depth at each send, per-process space_bits, B_k phase
//                     durations (the quantities Theorems 2 and 4 bound);
//   * spans         — B_k `phase` spans per process (opened on phase entry
//                     via the B1/B6/B8/B9 action labels, closed on phase
//                     advance or halt) and `message` spans from send to
//                     receive, matched through the links' FIFO discipline;
//   * markers       — B4 deactivations and B5 barrier starts.
//
// Detached, it costs nothing: the engines never materialize an ActionEvent
// when no observer is registered. Attached, the recording path is
// allocation-free after the first occurrence of each action label
// (registration is the cold path; see metrics.hpp), which hring-lint's
// hot-path-alloc check enforces over the annotated methods.
//
// The metrics registry is cumulative across runs (re-attach the same
// observer to aggregate a sweep); spans, markers and samples are rewound
// at every on_start so they always describe the latest run.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/link.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "telemetry/metrics.hpp"

namespace hring::telemetry {

/// One per-process B_k phase: [begin, end) in both step index and
/// normalized time. `closed` is false for spans still open when the run
/// stopped (their end fields hold the finish time).
struct PhaseSpan {
  sim::ProcessId pid = 0;
  /// 1-based phase number, matching BkProcess::phase().
  std::size_t phase = 0;
  /// Guest label held through this phase (raw label value).
  std::uint64_t guest = 0;
  /// True when the process entered the phase still competing (Figure 1's
  /// white nodes), false for passive entries (black nodes).
  bool active = false;
  bool closed = false;
  double begin_time = 0.0;
  double end_time = 0.0;
  std::uint64_t begin_step = 0;
  std::uint64_t end_step = 0;
};

/// One message's life on the wire: sent by `from` (received by the
/// clockwise neighbor), matched send-to-receive via link FIFO order.
struct MessageSpan {
  sim::ProcessId from = 0;
  sim::MsgKind kind = sim::MsgKind::kToken;
  std::uint64_t label = 0;
  double send_time = 0.0;
  double recv_time = 0.0;
};

/// Instantaneous event worth a timeline tick.
struct Marker {
  enum class Kind : std::uint8_t {
    kDeactivate,  // B4: an active process turned passive
    kBarrier,     // B5: a process initiated the PHASE_SHIFT barrier
  };
  Kind kind = Kind::kDeactivate;
  sim::ProcessId pid = 0;
  double time = 0.0;
  std::uint64_t step = 0;
};

/// Recorded whenever a process's space_bits changes (plus one seed sample
/// per process at start) — the per-process space-over-time series.
struct SpaceSample {
  sim::ProcessId pid = 0;
  double time = 0.0;
  std::size_t bits = 0;
};

class TelemetryObserver : public sim::Observer {
 public:
  struct Config {
    /// Bound on stored message spans (runaway-run guard; metrics keep
    /// counting past it, only span storage stops).
    std::size_t max_message_spans = std::size_t{1} << 16;
  };

  TelemetryObserver() : TelemetryObserver(Config{}) {}
  explicit TelemetryObserver(Config config);

  void on_start(const sim::ExecutionView& view) override;
  void on_action(const sim::ExecutionView& view,
                 const sim::ActionEvent& event) override;
  void on_finish(const sim::ExecutionView& view) override;

  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] const std::vector<PhaseSpan>& phase_spans() const {
    return phase_spans_;
  }
  [[nodiscard]] const std::vector<MessageSpan>& message_spans() const {
    return message_spans_;
  }
  [[nodiscard]] const std::vector<Marker>& markers() const {
    return markers_;
  }
  [[nodiscard]] const std::vector<SpaceSample>& space_samples() const {
    return space_samples_;
  }
  /// Message spans beyond Config::max_message_spans (counted, not stored).
  [[nodiscard]] std::uint64_t dropped_message_spans() const {
    return dropped_message_spans_;
  }

  // Run geometry captured at on_start, for exporters.
  [[nodiscard]] std::size_t process_count() const { return labels_.size(); }
  [[nodiscard]] std::uint64_t process_label(sim::ProcessId pid) const {
    HRING_EXPECTS(pid < labels_.size());
    return labels_[pid];
  }

  // Histogram names registered by this observer (exported documents and
  // tests key on these).
  static constexpr std::string_view kMessageLatencyHistogram =
      "message_latency_time_units";
  static constexpr std::string_view kLinkDepthHistogram = "link_queue_depth";
  static constexpr std::string_view kSpaceBitsHistogram =
      "process_space_bits";
  static constexpr std::string_view kPhaseDurationHistogram =
      "bk_phase_duration_time_units";

 private:
  /// Per-process B_k phase tracking state.
  struct PhaseTrack {
    std::size_t open_span = kNoSpan;  // index into phase_spans_
    std::size_t phase = 0;
  };
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  /// 1..11 for the B_k action labels "B1".."B11", 0 otherwise.
  [[nodiscard]] static int bk_action_number(std::string_view action);

  /// Cold path: registers the per-action counter for a first-seen label.
  CounterId action_counter_slow(std::string_view action);

  void open_phase(sim::ProcessId pid, std::uint64_t guest, bool active,
                  double time, std::uint64_t step);
  void close_phase(sim::ProcessId pid, double time, std::uint64_t step);

  Config config_;
  MetricsRegistry metrics_;

  // Pre-registered ids (bound at first on_start).
  bool ids_bound_ = false;
  HistogramId latency_hist_{};
  HistogramId link_depth_hist_{};
  HistogramId space_hist_{};
  HistogramId phase_hist_{};
  CounterId actions_counter_{};
  CounterId unmatched_receives_{};

  /// Interned action-name pointer -> counter id. Interned names are
  /// pointer-stable and unique per spelling, so the hot-path lookup is a
  /// pointer scan over a handful of slots.
  struct ActionSlot {
    const char* key = nullptr;
    CounterId id{};
  };
  std::vector<ActionSlot> action_slots_;

  std::vector<std::uint64_t> labels_;
  std::size_t label_bits_ = 0;
  /// pending_[i] mirrors link p_i -> p_{i+1}: each sent message waits
  /// there for its FIFO-matched receive, stamped with its send time.
  std::vector<sim::Link> pending_;
  std::vector<PhaseTrack> phase_tracks_;
  std::vector<std::size_t> last_space_bits_;

  std::vector<PhaseSpan> phase_spans_;
  std::vector<MessageSpan> message_spans_;
  std::vector<Marker> markers_;
  std::vector<SpaceSample> space_samples_;
  std::uint64_t dropped_message_spans_ = 0;
};

}  // namespace hring::telemetry
