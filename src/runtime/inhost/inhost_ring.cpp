#include "runtime/inhost/inhost_ring.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>

#include "runtime/inhost/inhost_links.hpp"
#include "support/assert.hpp"
#include "telemetry/flight_recorder.hpp"

namespace hring::runtime {
namespace {

using sim::Message;
using sim::Process;
using sim::ProcessId;
using telemetry::FlightEventKind;
using telemetry::FlightRing;

/// Flight-recorder store, skipped entirely when detached (`ring` null).
// hring-lint: hot-path
void rec(FlightRing* ring, FlightEventKind kind, std::uint64_t arg) {
  if (ring != nullptr) ring->record(kind, arg);
}

/// Latency histogram bucket edges, nanoseconds (decade scale: an in-host
/// hop lands in the 100ns..100µs range; the tails catch scheduler noise).
constexpr std::array<double, 8> kLatencyEdgesNs = {
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};

/// One liveness counter per cache line: beats are the workers' only
/// all-threads-write-adjacent state; sharing lines would serialize the
/// park loops on coherence traffic.
struct alignas(64) BeatSlot {
  // hring-shared: consumer,watchdog
  std::atomic<std::uint64_t> count{0};
};

/// Shared run state.
struct Shared {
  std::vector<std::unique_ptr<Process>> procs;
  InHostLinks links;  // port i: p_i -> p_{i+1}
  /// Every worker arrives here before its first firing; the election
  /// starts when all n have arrived.
  std::latch start;
  /// Per-worker liveness beats: the watchdog tells "parked, ring quiet"
  /// (beats advancing) from a worker that never reached the idle loop.
  std::unique_ptr<BeatSlot[]> beats;
  /// Detached unless config.flight_recorder; each worker writes only its
  /// own ring (telemetry/flight_recorder.hpp's single-writer discipline).
  telemetry::FlightRecorder flight;
  alignas(64) std::atomic<std::uint64_t> actions{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::size_t> workers_alive{0};
  std::atomic<bool> shutdown{false};
  std::atomic<bool> budget_hit{false};

  explicit Shared(std::size_t n)
      : start(static_cast<std::ptrdiff_t>(n)),
        beats(std::make_unique<BeatSlot[]>(n)) {}

  [[nodiscard]] std::size_t in_port(ProcessId pid) const {
    return ring::left(pid, links.ports());
  }
  [[nodiscard]] std::size_t out_port(ProcessId pid) const { return pid; }

  [[nodiscard]] bool shutting_down() const {
    return shutdown.load(std::memory_order_relaxed);
  }
};

/// Liveness beat from worker `pid`; one relaxed store per idle-loop pass.
// hring-lint: hot-path
// hring-role: consumer
void beat(Shared& shared, ProcessId pid) {
  shared.beats[pid].count.store(
      shared.beats[pid].count.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
}

/// Beats observed from worker `pid` so far (watchdog side).
// hring-role: watchdog
[[nodiscard]] std::uint64_t beats_of(const Shared& shared, ProcessId pid) {
  return shared.beats[pid].count.load(std::memory_order_relaxed);
}

/// Per-worker private state, merged by the main thread after join.
struct WorkerLocal {
  telemetry::MetricsRegistry metrics;
  /// The in-link's received history (filled only under record_trace).
  std::vector<Message> received;
  std::size_t peak_space_bits = 0;
  std::uint64_t fired = 0;
  /// monotonic_ns() as the worker leaves its loop; the latest one ends
  /// the election's elapsed time.
  std::uint64_t exit_ns = 0;
};

/// Context for one firing on an in-host worker: consume pops the peeked
/// wire frame (recording its latency, and logging it when `history` is
/// set), send encodes onto the out-queue with shutdown-cancelable
/// backpressure.
class InHostContext final : public sim::Context {
 public:
  InHostContext(Shared& shared, WorkerLocal& local,
                telemetry::HistogramId latency_hist, ProcessId pid,
                FlightRing* flight, std::vector<Message>* history)
      : shared_(shared),
        local_(local),
        latency_hist_(latency_hist),
        pid_(pid),
        flight_(flight),
        history_(history) {}

  Message consume() override {
    HRING_EXPECTS(!consumed_);
    consumed_ = true;
    std::uint64_t send_ts_ns = 0;
    const Message msg =
        shared_.links.recv_peeked(shared_.in_port(pid_), send_ts_ns);
    rec(flight_, FlightEventKind::kRecv, send_ts_ns);
    const std::uint64_t now = monotonic_ns();
    local_.metrics.record(
        latency_hist_,
        static_cast<double>(now >= send_ts_ns ? now - send_ts_ns : 0));
    shared_.received.fetch_add(1, std::memory_order_relaxed);
    if (history_ != nullptr) history_->push_back(msg);
    return msg;
  }

  void send(const Message& msg) override {
    std::uint64_t send_ts_ns = 0;
    const bool pushed = shared_.links.send_cancelable(
        shared_.out_port(pid_), msg,
        [this] { return shared_.shutting_down(); }, &send_ts_ns);
    if (pushed) {
      rec(flight_, FlightEventKind::kSend, send_ts_ns);
      shared_.sent.fetch_add(1, std::memory_order_relaxed);
    } else {
      shared_.abandoned.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void note_action(std::string_view) override {}

 private:
  Shared& shared_;
  WorkerLocal& local_;
  telemetry::HistogramId latency_hist_;
  ProcessId pid_;
  FlightRing* flight_;
  std::vector<Message>* history_;
  bool consumed_ = false;
};

void worker_loop(Shared& shared, WorkerLocal& local, ProcessId pid,
                 const InHostConfig& config, std::size_t label_bits) {
  FlightRing* flight =
      shared.flight.attached() ? &shared.flight.ring(pid) : nullptr;
  std::vector<Message>* history =
      config.record_trace ? &local.received : nullptr;
  // Start: no worker fires before all n have arrived.
  rec(flight, FlightEventKind::kJoin, pid);
  shared.start.arrive_and_wait();
  rec(flight, FlightEventKind::kStart, 0);
  if (config.post_start_hook) {
    config.post_start_hook(pid, [&] { return shared.shutting_down(); });
  }

  Process& proc = *shared.procs[pid];
  const telemetry::HistogramId latency_hist = local.metrics.histogram(
      "inhost_message_latency_ns",
      std::span<const double>(kLatencyEdgesNs));
  const std::size_t in_port = shared.in_port(pid);
  local.peak_space_bits = proc.space_bits(label_bits);  // initial space
  Backoff backoff;
  // Event coalescing: one kBeat per idle spell (not per loop iteration —
  // that would flush the whole ring between firings) and one
  // kBackoffEscalate per ladder exhaustion.
  std::uint64_t rejects_seen = shared.links.rejects(in_port);
  bool beat_recorded = false;
  bool escalation_recorded = false;

  while (!shared.shutting_down()) {
    if (proc.halted()) {
      rec(flight, FlightEventKind::kHalt, 0);
      break;
    }
    // Single consumer of in_port: the peeked head stays the head until
    // we consume it ourselves.
    const Message* head = shared.links.peek(in_port);
    if (flight != nullptr) {
      const std::uint64_t rejects_now = shared.links.rejects(in_port);
      if (rejects_now != rejects_seen) {
        rec(flight, FlightEventKind::kWireReject, rejects_now);
        rejects_seen = rejects_now;
      }
    }
    if (proc.enabled(head)) {
      rec(flight, FlightEventKind::kFire, local.fired);
      InHostContext ctx(shared, local, latency_hist, pid, flight, history);
      proc.fire(head, ctx);
      shared.actions.fetch_add(1, std::memory_order_relaxed);
      local.peak_space_bits =
          std::max(local.peak_space_bits, proc.space_bits(label_bits));
      backoff.reset();
      beat_recorded = false;
      escalation_recorded = false;
      if (++local.fired >= config.max_actions_per_process) {
        shared.budget_hit.store(true, std::memory_order_relaxed);
        shared.shutdown.store(true, std::memory_order_relaxed);
        shared.links.ring_all();  // wake parked peers to observe shutdown
        break;
      }
      continue;
    }
    // Not enabled: spin/yield briefly (small rings resolve in ns), then
    // park on the in-port doorbell — a futex sleep the producer's next
    // send (or shutdown's ring_all) ends directly. Beats let the
    // watchdog tell "parked, ring quiet" from "never got here".
    beat(shared, pid);
    if (!beat_recorded) {
      rec(flight, FlightEventKind::kBeat, local.fired);
      beat_recorded = true;
    }
    if (!backoff.exhausted()) {
      backoff.pause();
      continue;
    }
    if (!escalation_recorded) {
      rec(flight, FlightEventKind::kBackoffEscalate, 0);
      escalation_recorded = true;
    }
    const std::uint32_t ticket = shared.links.doorbell(in_port);
    // Re-check enabledness after taking the ticket: a frame published
    // before the ticket read would otherwise be slept through. Parking
    // while disabled is sound even with a frame queued — a disabled
    // process can only become enabled through a state change (it cannot
    // fire) or a new message (which rings the doorbell).
    if (!proc.enabled(shared.links.peek(in_port)) &&
        !shared.shutting_down()) {
      rec(flight, FlightEventKind::kPark, ticket);
      shared.links.doorbell_wait(in_port, ticket);
      rec(flight, FlightEventKind::kDoorbellWake,
          shared.links.doorbell(in_port));
      beat_recorded = false;  // next idle spell logs a fresh beat
    }
  }
  local.exit_ns = monotonic_ns();
  rec(flight, FlightEventKind::kExit, 0);
  shared.workers_alive.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace

InHostResult run_inhost(const ring::LabeledRing& ring,
                        const sim::ProcessFactory& factory,
                        const InHostConfig& config) {
  HRING_EXPECTS(factory != nullptr);
  const std::size_t n = ring.size();
  const std::size_t label_bits = ring.label_bits();
  Shared shared(n);
  shared.procs.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    shared.procs.push_back(factory(pid, ring.label(pid)));
  }
  // Queue capacity: every algorithm here keeps O(1) frames in flight per
  // process; 4n+16 frames bounds a runaway at backpressure instead of
  // memory exhaustion. A full link backpressures the sender (adaptive
  // spin/yield/sleep, canceled by shutdown).
  shared.links.reset(n, label_bits, (4 * n + 16) * wire::kFrameBytes);
  if (config.flight_recorder) {
    shared.flight.reset(n, config.flight_capacity);
  }
  // Pre-spawn, so the pokes are ordered before all worker reads.
  if (config.pre_start_poke) config.pre_start_poke(shared.links);
  shared.workers_alive.store(n, std::memory_order_relaxed);

  std::vector<WorkerLocal> locals(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    workers.emplace_back(worker_loop, std::ref(shared),
                         std::ref(locals[pid]), pid, std::cref(config),
                         label_bits);
  }

  // The election starts when every worker has arrived at the latch.
  shared.start.wait();
  const std::uint64_t started_ns = monotonic_ns();

  // Watchdog: finished when all workers exited; deadlocked when nothing
  // fired for the quiet period while workers are still parked. The
  // period scales with the worker count — on an oversubscribed host the
  // scheduling latency of the one enabled worker among n sleepers is
  // itself O(n) timeslices, and the watchdog must outwait it.
  const std::uint64_t quiet_ms = std::max<std::uint64_t>(
      config.quiet_period_ms, static_cast<std::uint64_t>(4 * n));
  std::uint64_t last_actions = shared.actions.load(std::memory_order_relaxed);
  auto last_progress = std::chrono::steady_clock::now();
  // Beat counters read at the previous elapsed quiet period (empty until
  // the first one elapses) — see the confirmation pass below.
  std::vector<std::uint64_t> quiet_beats;
  std::optional<ForensicReport> forensics;
  const auto snapshot_counters = [&shared] {
    ForensicCounters counters;
    counters.actions = shared.actions.load(std::memory_order_relaxed);
    counters.messages_sent = shared.sent.load(std::memory_order_relaxed);
    counters.messages_received =
        shared.received.load(std::memory_order_relaxed);
    counters.wire_rejects = shared.links.total_rejects();
    return counters;
  };
  const auto read_beats = [&shared, n] {
    std::vector<std::uint64_t> beats(n);
    for (ProcessId pid = 0; pid < n; ++pid) {
      beats[pid] = beats_of(shared, pid);
    }
    return beats;
  };
  for (;;) {
    if (shared.workers_alive.load(std::memory_order_acquire) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t now_actions =
        shared.actions.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (now_actions != last_actions) {
      last_actions = now_actions;
      last_progress = now;
      continue;
    }
    if (now - last_progress > std::chrono::milliseconds(quiet_ms)) {
      // With the recorder attached, the stall verdict takes a
      // confirmation pass. A quiet period can elapse on an
      // oversubscribed host while innocent workers are still climbing
      // the backoff ladder toward the park, and a single snapshot would
      // misfile them as wedged. The verdict waits until every worker is
      // *settled* (last event a park or exit) or *beat-frozen* (its
      // liveness counter did not advance across the whole previous
      // quiet period — a worker that never reached the idle loop, i.e.
      // genuinely wedged). An unsettled beating worker is alive and
      // merely idle; it either fires (progress resets the watch above)
      // or parks within its ladder's O(ms) horizon, so each granted
      // period makes monotone progress toward the settled picture and
      // confirmation terminates.
      if (shared.flight.attached()) {
        std::vector<std::uint64_t> beats_now = read_beats();
        bool settled_or_frozen = true;
        for (ProcessId pid = 0; pid < n; ++pid) {
          const FlightEventKind last = shared.flight.ring(pid).last_kind();
          const bool settled = last == FlightEventKind::kPark ||
                               last == FlightEventKind::kExit;
          const bool frozen =
              !quiet_beats.empty() && beats_now[pid] == quiet_beats[pid];
          if (!settled && !frozen) settled_or_frozen = false;
        }
        const bool first_read = quiet_beats.empty();
        quiet_beats = std::move(beats_now);
        if (first_read || !settled_or_frozen) {
          last_progress = now;
          continue;
        }
      }
      // Freeze the forensic evidence *before* waking anyone: the park
      // picture at this instant is the stall picture; ring_all would
      // append wake/exit events and repaint it.
      if (shared.flight.attached() && !forensics.has_value()) {
        forensics = collect_forensics(shared.flight, shared.links,
                                      read_beats(), "stall", quiet_ms,
                                      snapshot_counters());
      }
      shared.shutdown.store(true, std::memory_order_relaxed);
      shared.links.ring_all();
    }
  }
  for (auto& worker : workers) worker.join();
  // The election ends at the last worker's exit, not when the watchdog's
  // tick noticed it.
  std::uint64_t finished_ns = started_ns;
  for (const WorkerLocal& local : locals) {
    finished_ns = std::max(finished_ns, local.exit_ns);
  }

  InHostResult result;
  // Workers have joined: final values, relaxed suffices.
  result.actions = shared.actions.load(std::memory_order_relaxed);
  result.messages_sent = shared.sent.load(std::memory_order_relaxed);
  result.messages_received =
      shared.received.load(std::memory_order_relaxed);
  result.sends_abandoned = shared.abandoned.load(std::memory_order_relaxed);
  result.wire_rejects = shared.links.total_rejects();
  result.elapsed_ns = finished_ns - started_ns;

  bool clean = true;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const Process& p = *shared.procs[pid];
    result.processes.push_back(sim::snapshot_of(p));
    if (!p.halted()) clean = false;
    if (shared.links.pending_bytes(pid) != 0) clean = false;
  }
  if (shared.budget_hit.load(std::memory_order_relaxed)) {
    result.outcome = sim::Outcome::kBudgetExhausted;
  } else {
    result.outcome =
        clean ? sim::Outcome::kTerminated : sim::Outcome::kDeadlock;
  }
  // A run the watchdog never flagged still yields a report when the
  // recorder is attached (the workers have joined, so the rings are
  // quiescent). The stall-time snapshot, when one exists, wins.
  if (shared.flight.attached() && !forensics.has_value()) {
    const char* verdict =
        result.outcome == sim::Outcome::kTerminated ? "completed"
        : result.outcome == sim::Outcome::kBudgetExhausted
            ? "budget-exhausted"
            : "deadlock";
    forensics = collect_forensics(shared.flight, shared.links,
                                  read_beats(), verdict, quiet_ms,
                                  snapshot_counters());
  }
  result.forensics = std::move(forensics);

  // Fold the per-worker views: metrics merge by name, space maxes, and
  // each worker's received log becomes its in-link's history.
  if (config.record_trace) result.link_histories.resize(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    WorkerLocal& local = locals[pid];
    result.metrics.merge(local.metrics);
    result.peak_space_bits =
        std::max(result.peak_space_bits, local.peak_space_bits);
    if (config.record_trace) {
      result.link_histories[shared.in_port(pid)] = std::move(local.received);
    }
  }
  const auto wire_rejects_id = result.metrics.counter("inhost_wire_rejects");
  result.metrics.add(wire_rejects_id, result.wire_rejects);
  const auto abandoned_id =
      result.metrics.counter("inhost_sends_abandoned");
  result.metrics.add(abandoned_id, result.sends_abandoned);
  return result;
}

}  // namespace hring::runtime
