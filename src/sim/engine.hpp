// Execution engines.
//
// ExecutionCore owns the processes, links and statistics shared by the two
// engines, and keeps every hot-path buffer alive across runs: a core can be
// rebound to a new ring via the engines' prepare() so that sweeps, drivers
// and benchmarks recycle one execution arena instead of reallocating
// processes, links and per-process counters for every cell.
//
// StepEngine implements the configuration-step semantics of §II (γ ↦ γ'
// executes a scheduler-chosen non-empty subset of the enabled processes,
// with fairness enforced by aging); it is the instrument for Lemma 1's
// synchronous step counts and for scheduler-adversarial testing. The
// discrete-event engine (event_engine.hpp) measures normalized time.
//
// The firing path is allocation-free and statically dispatched: the
// per-message delivery-time policy is a template parameter (each engine
// passes its own callable, inlined at the call site), the early-stop hook is
// a plain function pointer, and the observer event is a reused scratch that
// is only filled when observers are attached.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "ring/labeled_ring.hpp"
#include "sim/fault_model.hpp"
#include "sim/link.hpp"
#include "sim/observer.hpp"
#include "sim/process.hpp"
#include "sim/run_result.hpp"
#include "sim/scheduler.hpp"
#include "support/assert.hpp"

namespace hring::sim {

/// Builds the local algorithm of one process. The same factory is used for
/// every process — §II's "all local algorithms are identical, except maybe
/// for the labels".
using ProcessFactory =
    std::function<std::unique_ptr<Process>(ProcessId pid, Label id)>;

/// State and plumbing shared by both engines.
class ExecutionCore : public ExecutionView {
 public:
  ExecutionCore(const ring::LabeledRing& ring, const ProcessFactory& factory);

  // ExecutionView:
  [[nodiscard]] std::size_t process_count() const override {
    return processes_.size();
  }
  [[nodiscard]] const Process& process(ProcessId pid) const override;
  [[nodiscard]] const Link& out_link(ProcessId pid) const override;
  [[nodiscard]] std::uint64_t current_step() const override { return step_; }
  [[nodiscard]] double current_time() const override { return time_; }

  /// Registers an observer (not owned; must outlive the run).
  void add_observer(Observer* observer) { observers_.add(observer); }

  /// Attaches a link-layer fault injector (not owned; nullptr = reliable
  /// links, the §II default). See sim/fault_model.hpp.
  void set_fault_model(FaultModel* model) { fault_model_ = model; }

  /// Optional early-stop hook, polled after every step; a true return stops
  /// the run with Outcome::kViolation. Statically dispatched: a plain
  /// function pointer plus context, so polling an absent hook costs one
  /// branch. The core driver wires the spec monitor in here.
  using StopFn = bool (*)(void* ctx);
  void set_stop_hook(void* ctx, StopFn fn) {
    stop_ctx_ = ctx;
    stop_fn_ = fn;
  }

  /// Convenience wrapper over set_stop_hook for a callable lvalue (a lambda
  /// variable, a monitor, …). The predicate is captured by address and must
  /// outlive the run.
  template <class Predicate>
  void set_stop_predicate(Predicate& predicate) {
    set_stop_hook(&predicate, [](void* ctx) -> bool {
      return (*static_cast<Predicate*>(ctx))();
    });
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  /// Builds an empty, unbound core; bind a cell later via the subclass's
  /// prepare(). Reusable engines start here.
  ExecutionCore() = default;

  /// Rebinds the core to a new ring, recycling link buffers, per-process
  /// counters and the observer scratch. Observers, the stop hook and the
  /// fault model are detached — the recycled execution starts clean; wire
  /// them again after prepare() if wanted.
  void reset_core(const ring::LabeledRing& ring, const ProcessFactory& factory);

  [[nodiscard]] Link& in_link_of(ProcessId pid);
  [[nodiscard]] Link& out_link_of(ProcessId pid);
  [[nodiscard]] Process& mutable_process(ProcessId pid);

  /// Head of pid's incoming link deliverable at `now`.
  [[nodiscard]] const Message* deliverable_head(ProcessId pid,
                                                double now) const;

  /// Fires one action of `pid` atomically. `head` must be the pointer the
  /// enabled() check saw. `send_ready` computes the delivery time of each
  /// sent message (the step engine passes "now"; the DES adds a delay and
  /// clamps to FIFO order); it is a template parameter so each engine's
  /// policy inlines into the firing loop. Returns true iff the action
  /// consumed a message.
  template <class SendReady>
  bool fire_process(ProcessId pid, const Message* head,
                    const SendReady& send_ready);

  /// True iff the stop hook is wired and asks to stop.
  [[nodiscard]] bool stop_requested() const {
    return stop_fn_ != nullptr && stop_fn_(stop_ctx_);
  }

  /// True iff every process halted and every link is empty.
  [[nodiscard]] bool terminal_is_clean() const;

  /// Copies out final per-process state and closes the statistics
  /// (link high-waters, label comparisons).
  RunResult make_result(Outcome outcome);

  /// Seeds initial-space accounting and notifies observers; call once.
  void begin_run();

  std::uint64_t step_ = 0;
  double time_ = 0.0;
  ObserverList observers_;
  void* stop_ctx_ = nullptr;
  StopFn stop_fn_ = nullptr;
  FaultModel* fault_model_ = nullptr;
  Stats stats_;

 private:
  template <class SendReady>
  class FireContext;

  void update_space(ProcessId pid);

  std::vector<std::unique_ptr<Process>> processes_;
  /// links_[i] is the link p_i -> p_{i+1}.
  std::vector<Link> links_;
  std::size_t label_bits_ = 0;
  /// Scratch event reused across firings; filled only when observers are
  /// attached (see ActionEvent's lifetime notes).
  ActionEvent event_scratch_;
};

// ---------------------------------------------------------------------------
// FireContext: the Context handed to a firing action. A member template so
// the engine-specific send_ready policy is dispatched statically.

template <class SendReady>
class ExecutionCore::FireContext final : public Context {
 public:
  FireContext(ExecutionCore& exec, ProcessId pid, const Message* head,
              const SendReady& send_ready, bool observed)
      : exec_(exec),
        pid_(pid),
        head_(head),
        send_ready_(send_ready),
        observed_(observed) {}

  // hring-lint: hot-path
  Message consume() override {
    HRING_EXPECTS(head_ != nullptr);   // guard matched a message
    HRING_EXPECTS(!consumed_);         // each message received exactly once
    consumed_ = true;
    // Copy before pop: head_ points into the ring slot pop() recycles.
    const Message expected = *head_;
    Link& in = exec_.in_link_of(pid_);
    const Message msg = in.pop();
    // Compare raw representations: this engine self-check must not count
    // toward the algorithm's label-comparison statistic.
    HRING_ASSERT(msg.kind == expected.kind &&
                 msg.label.value() == expected.label.value());
    ++exec_.stats_.messages_received;
    ++exec_.stats_.received_by_kind[kind_index(msg.kind)];
    ++exec_.stats_.received_by_process[pid_];
    if (observed_) exec_.event_scratch_.consumed = msg;
    return msg;
  }

  // hring-lint: hot-path
  void send(const Message& msg) override {
    FaultDecision fault;
    if (exec_.fault_model_ != nullptr) {
      fault =
          exec_.fault_model_->on_send(exec_.stats_.messages_sent, pid_, msg);
      if (fault.faulty()) ++exec_.stats_.faults_injected;
    }
    ++exec_.stats_.messages_sent;
    ++exec_.stats_.sent_by_kind[kind_index(msg.kind)];
    ++exec_.stats_.sent_by_process[pid_];
    exec_.stats_.message_bits_sent += message_bits(msg, exec_.label_bits_);
    if (observed_) exec_.event_scratch_.sent.push_back(msg);
    if (fault.drop) return;  // the message vanishes on the wire

    Message to_send = msg;
    if (fault.corrupt_to.has_value()) to_send.label = *fault.corrupt_to;
    Link& out = exec_.out_link_of(pid_);
    const double ready = std::max(send_ready_(pid_), out.last_ready_time());
    out.push(to_send, ready);
    if (fault.duplicate) {
      // A second copy; its own delay, clamped to stay FIFO.
      const double ready2 =
          std::max(send_ready_(pid_), out.last_ready_time());
      out.push(to_send, ready2);
    }
    if (fault.reorder && out.size() >= 2) {
      out.swap_last_two_payloads();
    }
  }

  // hring-lint: hot-path
  void note_action(std::string_view name) override {
    HRING_EXPECTS(!noted_);  // at most one label per firing
    noted_ = true;
    if (observed_) exec_.event_scratch_.action = intern_action_name(name);
  }

  [[nodiscard]] bool consumed() const { return consumed_; }

 private:
  ExecutionCore& exec_;
  ProcessId pid_;
  const Message* head_;
  const SendReady& send_ready_;
  bool observed_;
  bool consumed_ = false;
  bool noted_ = false;
};

// hring-lint: hot-path
template <class SendReady>
bool ExecutionCore::fire_process(ProcessId pid, const Message* head,
                                 const SendReady& send_ready) {
  Process& proc = mutable_process(pid);
  HRING_ASSERT(!proc.halted());
  const bool observed = !observers_.empty();
  if (observed) {
    // Rewind the scratch event; its buffers keep their capacity.
    event_scratch_.pid = pid;
    event_scratch_.action = {};
    event_scratch_.consumed.reset();
    event_scratch_.sent.clear();
    event_scratch_.step = step_;
    event_scratch_.time = time_;
  }
  FireContext<SendReady> ctx(*this, pid, head, send_ready, observed);
  proc.fire(head, ctx);
  ++stats_.actions;
  update_space(pid);
  if (observed) observers_.action(*this, event_scratch_);
  return ctx.consumed();
}

/// Step-engine tuning knobs.
struct StepConfig {
  /// Budget on configuration steps before giving up (livelock guard).
  std::uint64_t max_steps = 10'000'000;
};

class StepEngine final : public ExecutionCore {
 public:
  /// `scheduler` is not owned and must outlive the engine.
  StepEngine(const ring::LabeledRing& ring, const ProcessFactory& factory,
             Scheduler& scheduler, StepConfig config = {});

  /// Builds an unbound engine; call prepare() before run(). This is the
  /// entry point for recycled engines (sweeps, drivers, audits).
  StepEngine() = default;

  /// Rebinds the engine to a new cell, recycling every buffer. Observers,
  /// the stop hook and the fault model are detached; wire them between
  /// prepare() and run().
  void prepare(const ring::LabeledRing& ring, const ProcessFactory& factory,
               Scheduler& scheduler, StepConfig config = {});

  /// Runs to a terminal configuration (or budget/stop-hook exit).
  RunResult run();

 private:
  /// Executes one configuration step; false when no process is enabled.
  bool step_once();

  Scheduler* scheduler_ = nullptr;
  StepConfig config_;
  std::vector<std::uint32_t> age_;  // consecutive steps enabled without firing
  // The step's enabled and chosen sets (PidSet bitsets), sized per ring.
  std::vector<std::uint64_t> enabled_;
  std::vector<std::uint64_t> chosen_;
};

}  // namespace hring::sim
