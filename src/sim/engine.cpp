#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace hring::sim {

// ---------------------------------------------------------------------------
// ExecutionCore

ExecutionCore::ExecutionCore(const ring::LabeledRing& ring,
                             const ProcessFactory& factory) {
  reset_core(ring, factory);
}

void ExecutionCore::reset_core(const ring::LabeledRing& ring,
                               const ProcessFactory& factory) {
  HRING_EXPECTS(factory != nullptr);
  const std::size_t n = ring.size();
  label_bits_ = ring.label_bits();
  processes_.clear();
  processes_.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    processes_.push_back(factory(pid, ring.label(pid)));
    HRING_ENSURES(processes_.back() != nullptr);
    HRING_ENSURES(processes_.back()->pid() == pid);
  }
  links_.resize(n);
  for (Link& link : links_) link.reset();  // keeps each buffer's capacity
  stats_.reset(n);
  observers_.clear();
  stop_ctx_ = nullptr;
  stop_fn_ = nullptr;
  fault_model_ = nullptr;
  step_ = 0;
  time_ = 0.0;
}

const Process& ExecutionCore::process(ProcessId pid) const {
  HRING_EXPECTS(pid < processes_.size());
  return *processes_[pid];
}

const Link& ExecutionCore::out_link(ProcessId pid) const {
  HRING_EXPECTS(pid < links_.size());
  return links_[pid];
}

Link& ExecutionCore::in_link_of(ProcessId pid) {
  HRING_EXPECTS(pid < links_.size());
  return links_[ring::left(pid, links_.size())];
}

Link& ExecutionCore::out_link_of(ProcessId pid) {
  HRING_EXPECTS(pid < links_.size());
  return links_[pid];
}

Process& ExecutionCore::mutable_process(ProcessId pid) {
  HRING_EXPECTS(pid < processes_.size());
  return *processes_[pid];
}

// hring-lint: hot-path
const Message* ExecutionCore::deliverable_head(ProcessId pid,
                                               double now) const {
  HRING_EXPECTS(pid < links_.size());
  return links_[ring::left(pid, links_.size())].head(now);
}

bool ExecutionCore::terminal_is_clean() const {
  for (const auto& p : processes_) {
    if (!p->halted()) return false;
  }
  for (const Link& l : links_) {
    if (!l.empty()) return false;
  }
  return true;
}

void ExecutionCore::update_space(ProcessId pid) {
  stats_.peak_space_bits = std::max(
      stats_.peak_space_bits, processes_[pid]->space_bits(label_bits_));
}

void ExecutionCore::begin_run() {
  Label::reset_comparison_count();
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) update_space(pid);
  observers_.start(*this);
}

RunResult ExecutionCore::make_result(Outcome outcome) {
  observers_.finish(*this);
  stats_.label_comparisons = Label::comparison_count();
  for (const Link& l : links_) {
    stats_.peak_link_occupancy =
        std::max(stats_.peak_link_occupancy, l.high_water());
  }
  RunResult result;
  result.outcome = outcome;
  result.stats = stats_;
  result.processes.reserve(processes_.size());
  for (const auto& p : processes_) result.processes.push_back(snapshot_of(*p));
  return result;
}

// ---------------------------------------------------------------------------
// StepEngine

StepEngine::StepEngine(const ring::LabeledRing& ring,
                       const ProcessFactory& factory, Scheduler scheduler,
                       StepConfig config)
    : ExecutionCore(ring, factory),
      scheduler_(scheduler),
      config_(config),
      age_(ring.size(), 0),
      enabled_(pid_set_words(ring.size()), 0),
      chosen_(pid_set_words(ring.size()), 0) {}

void StepEngine::prepare(const ring::LabeledRing& ring,
                         const ProcessFactory& factory, Scheduler scheduler,
                         StepConfig config) {
  reset_core(ring, factory);
  scheduler_ = scheduler;
  config_ = config;
  age_.assign(ring.size(), 0);
  enabled_.assign(pid_set_words(ring.size()), 0);
  chosen_.assign(pid_set_words(ring.size()), 0);
}

RunResult StepEngine::run() {
  HRING_EXPECTS(process_count() > 0);  // bound via ctor or prepare()
  begin_run();
  for (;;) {
    if (step_ >= config_.max_steps) {
      return make_result(Outcome::kBudgetExhausted);
    }
    if (!step_once()) {
      return make_result(terminal_is_clean() ? Outcome::kTerminated
                                             : Outcome::kDeadlock);
    }
    observers_.step_end(*this);
    if (stop_requested()) {
      return make_result(Outcome::kViolation);
    }
  }
}

// hring-lint: hot-path
bool StepEngine::step_once() {
  // Enabled set in the current configuration γ. In the step engine every
  // queued message is deliverable (infinite `now`).
  constexpr double kNow = std::numeric_limits<double>::infinity();
  std::fill(enabled_.begin(), enabled_.end(), 0);
  bool any_enabled = false;
  for (ProcessId pid = 0; pid < process_count(); ++pid) {
    const Process& proc = process(pid);
    if (!proc.halted() && proc.enabled(deliverable_head(pid, kNow))) {
      enabled_[pid / 64] |= pid_bit(pid);
      any_enabled = true;
    } else {
      age_[pid] = 0;
    }
  }
  if (!any_enabled) return false;

  // The forced set (fair activation) with the daemon's picks ORed in.
  choose_step(scheduler_, enabled_, age_, chosen_);

  // Execute the chosen processes, in ascending pid order. Firing order
  // within a step is immaterial: a process only pops its own in-link head
  // (fixed in γ) and only appends to its out-link tail, so each firing
  // sees exactly the state γ prescribed for it.
  const auto send_ready = [](ProcessId) { return 0.0; };
  for_each_pid(chosen_, [&](ProcessId pid) {
    const Message* head = deliverable_head(pid, kNow);
    const Process& proc = process(pid);
    HRING_ASSERT(!proc.halted());
    HRING_ASSERT(proc.enabled(head));
    fire_process(pid, head, send_ready);
    age_[pid] = 0;
  });
  ++step_;
  stats_.steps = step_;
  // Under the synchronous daemon each step is one normalized time unit;
  // other daemons must use the event engine for time measurements.
  time_ = static_cast<double>(step_);
  stats_.time_units = time_;
  return true;
}

}  // namespace hring::sim
