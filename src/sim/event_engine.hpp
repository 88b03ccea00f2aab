// Discrete-event engine: the normalized-time instrument.
//
// §II measures time by normalizing executions so the longest message delay
// (transmission + processing at the receiver) is one time unit and local
// processing is instantaneous. The event engine realizes this directly:
// each sent message is assigned a delay in (0, 1] by the engine's
// by-value sim::Delay (clamped so per-link delivery times stay FIFO), and
// a process fires as soon as an enabled guard has a delivered head
// message. The completion time of the run is exactly the §II time measure
// for that delay assignment; with the worst-case delay 1.0 it realizes the
// adversary the upper-bound theorems are stated against.
#pragma once

#include "sim/delay_model.hpp"
#include "sim/engine.hpp"

namespace hring::sim {

struct EventConfig {
  /// Budget on action firings before giving up (livelock guard).
  std::uint64_t max_actions = 50'000'000;
};

class EventEngine final : public ExecutionCore {
 public:
  EventEngine(const ring::LabeledRing& ring, const ProcessFactory& factory,
              Delay delay, EventConfig config = {});

  /// Builds an unbound engine; call prepare() before run(). This is the
  /// entry point for recycled engines (sweeps, drivers, benchmarks).
  EventEngine() = default;

  /// Rebinds the engine to a new cell, recycling every buffer including the
  /// wake heap. Observers, the stop hook and the fault model are detached;
  /// wire them between prepare() and run().
  void prepare(const ring::LabeledRing& ring, const ProcessFactory& factory,
               Delay delay, EventConfig config = {});

  /// Runs to a terminal configuration (or budget/stop-hook exit).
  /// stats().time_units is the timestamp of the last fired action.
  RunResult run();

 private:
  struct Wake {
    double time;
    std::uint64_t seq;  // FIFO tiebreak for equal times
    ProcessId pid;
    friend bool operator>(const Wake& a, const Wake& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void schedule_wake(double time, ProcessId pid);
  /// Fires `pid` while an action is enabled at time `now`; returns the
  /// number of actions fired.
  std::size_t drain_process(ProcessId pid, double now);

  Delay delay_{DelayKind::kWorstCase, 0, 1};
  EventConfig config_;
  std::vector<Wake> heap_;  // min-heap via std::*_heap with greater
  std::uint64_t next_seq_ = 0;
};

}  // namespace hring::sim
