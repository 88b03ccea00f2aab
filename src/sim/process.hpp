// Guarded-action processes (§II).
//
// A local algorithm is a list of actions ⟨guard⟩ → ⟨statement⟩. Guards may
// inspect the process's own variables and pattern-match the head message of
// the incoming link (the model's message-blocking rcv); statements assign
// variables, send messages, and possibly halt. Guard evaluation plus the
// statement execute as one atomic step.
//
// Process carries the spec variables of the leader-election specification
// (isLeader, leader, done) plus the halting flag, so the engines and the
// invariant monitor can observe them uniformly across algorithms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/message.hpp"

namespace hring::sim {

/// Position of a process in the ring, in [0, n).
using ProcessId = std::size_t;

/// Execution context handed to a firing action: message consumption and
/// sending, plus action labeling for traces. Implemented by each engine.
class Context {
 public:
  virtual ~Context() = default;

  /// Receives (removes) the head message of the incoming link. An action
  /// whose guard matched a message must call this exactly once; an action
  /// triggerable without reception (A1/B1) must not call it.
  virtual Message consume() = 0;

  /// Sends `msg` to the right neighbor (appends to the outgoing link).
  virtual void send(const Message& msg) = 0;

  /// Records which action fired ("A3", "B6", …) for traces and the
  /// state-diagram conformance census. Call at most once per firing.
  virtual void note_action(std::string_view name) = 0;
};

class Process {
 public:
  Process(ProcessId pid, Label id) : pid_(pid), id_(id) {}
  virtual ~Process() = default;

  Process& operator=(const Process&) = delete;

  /// True iff some action of this process is enabled given the head message
  /// of the incoming link (nullptr when the link is empty or the head is
  /// still in transit). Must be side-effect free.
  [[nodiscard]] virtual bool enabled(const Message* head) const = 0;

  /// Atomically executes exactly one enabled action. `head` is the same
  /// pointer passed to the matching enabled() call.
  virtual void fire(const Message* head, Context& ctx) = 0;

  /// Space occupied by the process's variables, in bits, under the paper's
  /// conventions: `label_bits` per label variable, 1 per Boolean,
  /// ⌈log2 k⌉ per k-bounded counter. Excludes debugging instrumentation.
  [[nodiscard]] virtual std::size_t space_bits(
      std::size_t label_bits) const = 0;

  /// One-line state rendering for traces ("COMPUTE g=3 in=1 out=2").
  [[nodiscard]] virtual std::string debug_state() const = 0;

  /// Serializes the complete local state (spec variables included) into
  /// `out`, for configuration hashing/equality in the model checker. Two
  /// processes with equal encodings must behave identically. The default
  /// encodes only the spec variables — enough for the base class;
  /// subclasses with state of their own must append their fields.
  virtual void encode(std::vector<std::uint64_t>& out) const {
    out.push_back((static_cast<std::uint64_t>(is_leader_) << 0) |
                  (static_cast<std::uint64_t>(done_) << 1) |
                  (static_cast<std::uint64_t>(halted_) << 2) |
                  (static_cast<std::uint64_t>(leader_.has_value()) << 3));
    out.push_back(leader_.has_value() ? leader_->value() : 0);
  }

  /// Inverse of encode(): restores the complete local state from the words
  /// at `it` (reading at most up to `end`), advancing `it` past the
  /// consumed words. Returns false when the process does not support
  /// restoration (the default) or the input is truncated. Together with
  /// encode() this lets the model checker return one process to any
  /// interned local state to discover its steps (core/model_checker.hpp),
  /// so decode() must restore every word encode() writes.
  [[nodiscard]] virtual bool decode(const std::uint64_t*& it,
                                    const std::uint64_t* end) {
    (void)it;
    (void)end;
    return false;
  }

  // -- spec variables ------------------------------------------------------
  // Plain reads: the engines and the monitor read them on every pass. A
  // test process presents any trajectory, reverts included, by clearing
  // them with restart_spec() and setting them again with the mutators.
  [[nodiscard]] ProcessId pid() const { return pid_; }
  [[nodiscard]] Label id() const { return id_; }
  [[nodiscard]] bool is_leader() const { return is_leader_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::optional<Label> leader() const { return leader_; }
  [[nodiscard]] bool halted() const { return halted_; }

 protected:
  /// Copying is reserved for subclasses: BatchRunner
  /// (core/batch_engine.hpp) copies its prototype process into its ring.
  Process(const Process&) = default;

  /// Restores the spec variables written by the base encode(); decode()
  /// implementers call this first, mirroring Process::encode. Returns
  /// false on truncated input.
  [[nodiscard]] bool decode_spec_vars(const std::uint64_t*& it,
                                      const std::uint64_t* end) {
    if (end - it < 2) return false;
    const std::uint64_t flags = *it++;
    // Exactly four flag bits exist; anything else marks a stream that was
    // truncated, reordered, or produced by a mismatched encode().
    if ((flags & ~std::uint64_t{0xF}) != 0) return false;
    is_leader_ = (flags & (1U << 0)) != 0;
    done_ = (flags & (1U << 1)) != 0;
    halted_ = (flags & (1U << 2)) != 0;
    const std::uint64_t leader_rep = *it++;
    if ((flags & (1U << 3)) != 0) {
      leader_ = Label(static_cast<Label::rep_type>(leader_rep));
    } else {
      leader_.reset();
    }
    return true;
  }

  /// Rebinds the process to position `pid` with label `id` and clears the
  /// spec variables, as if freshly constructed. Implementations' restart()
  /// calls this first, then resets their own fields in place — the batch
  /// engine recycles its process arena this way (core/batch_engine.hpp).
  void restart_spec(ProcessId pid, Label id) {
    pid_ = pid;
    id_ = id;
    is_leader_ = false;
    done_ = false;
    leader_.reset();
    halted_ = false;
  }

  // Mutators for implementations. Deliberately unchecked: the invariant
  // monitor (not the mutator) reports spec violations, so the impossibility
  // experiments can observe a faulty election instead of aborting.
  void declare_leader() { is_leader_ = true; }
  void set_leader_label(Label l) { leader_ = l; }
  void set_done() { done_ = true; }
  /// The model's (halt): the process never executes another action.
  void halt_self() { halted_ = true; }

 private:
  // hring-state: excluded(simulator addressing, not protocol state)
  ProcessId pid_;
  Label id_;
  bool is_leader_ = false;
  bool done_ = false;
  // hring-state: bits=b
  std::optional<Label> leader_;
  // hring-state: excluded(halt flag; halted processes leave the model)
  bool halted_ = false;
};

}  // namespace hring::sim
