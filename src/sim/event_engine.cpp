#include "sim/event_engine.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hring::sim {

EventEngine::EventEngine(const ring::LabeledRing& ring,
                         const ProcessFactory& factory, Delay delay,
                         EventConfig config)
    : ExecutionCore(ring, factory), delay_(delay), config_(config) {}

void EventEngine::prepare(const ring::LabeledRing& ring,
                          const ProcessFactory& factory, Delay delay,
                          EventConfig config) {
  reset_core(ring, factory);
  delay_ = delay;
  config_ = config;
  heap_.clear();
  next_seq_ = 0;
}

void EventEngine::schedule_wake(double time, ProcessId pid) {
  heap_.push_back(Wake{time, next_seq_++, pid});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

// hring-lint: hot-path
std::size_t EventEngine::drain_process(ProcessId pid, double now) {
  std::size_t fired = 0;
  // Delivery time of a message sent at `now`: now + delay, clamped so the
  // link's delivery order stays FIFO. A wake is scheduled for the receiver
  // at that time — one wake per message, so none can be missed.
  const auto send_ready = [this, now](ProcessId from) {
    const double d = delay_.of(from);
    HRING_ASSERT(d > 0.0 && d <= 1.0);
    const double ready =
        std::max(now + d, out_link(from).last_ready_time());
    schedule_wake(ready, ring::right(from, process_count()));
    return ready;
  };
  for (;;) {
    Process& proc = mutable_process(pid);
    if (proc.halted()) break;
    const Message* head = deliverable_head(pid, now);
    if (!proc.enabled(head)) break;
    fire_process(pid, head, send_ready);
    ++fired;
    if (stats_.actions >= config_.max_actions) break;
  }
  return fired;
}

RunResult EventEngine::run() {
  HRING_EXPECTS(process_count() > 0);  // bound via ctor or prepare()
  begin_run();
  // The paper's unique no-reception action runs first in all executions:
  // every process gets a wake at time 0.
  for (ProcessId pid = 0; pid < process_count(); ++pid) {
    schedule_wake(0.0, pid);
  }
  while (!heap_.empty()) {
    if (stats_.actions >= config_.max_actions) {
      return make_result(Outcome::kBudgetExhausted);
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Wake wake = heap_.back();
    heap_.pop_back();
    HRING_ASSERT(wake.time >= time_);
    time_ = wake.time;

    if (drain_process(wake.pid, time_) > 0) {
      ++step_;
      stats_.steps = step_;
      stats_.time_units = time_;
      observers_.step_end(*this);
      if (stop_requested()) {
        return make_result(Outcome::kViolation);
      }
    }
  }
  return make_result(terminal_is_clean() ? Outcome::kTerminated
                                         : Outcome::kDeadlock);
}

}  // namespace hring::sim
