// Chang–Roberts (1979): the classical leader election for unidirectional
// rings with *unique* identifiers (class K_1 ⊂ U* ∩ K_k).
//
// Every process launches a candidate token with its label; a process
// forwards tokens larger than its own label, swallows smaller ones, and
// elects itself when its own label returns. Average O(n log n) messages,
// worst case O(n²). Serves as the identified-ring baseline of experiment
// E9 (and stands in for the [10] comparison point, see DESIGN.md).
#pragma once

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace hring::election {

using sim::Context;
using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

// hring-algorithm: ChangRoberts
class ChangRobertsProcess final : public Process {
 public:
  ChangRobertsProcess(ProcessId pid, Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    if (init_) return true;
    return head != nullptr;
  }

  void fire(const Message* head, Context& ctx) override {
    fire<Context>(head, ctx);
  }

  /// The actions, written once for every engine: instantiated for
  /// sim::Context and for the batch engine's election::BatchFireContext.
  template <class Ctx>
  void fire(const Message* head, Ctx& ctx);

  [[nodiscard]] std::size_t space_bits(
      std::size_t label_bits) const override {
    // id + leader labels, plus INIT/isLeader/done Booleans.
    return 2 * label_bits + 3;
  }

  [[nodiscard]] std::string debug_state() const override;
  void encode(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override;

  /// Rebinds the process to (pid, id) in its initial state (batch-engine
  /// per-cell restart).
  void restart(ProcessId pid, Label id) {
    restart_spec(pid, id);
    init_ = true;
  }

  [[nodiscard]] static sim::ProcessFactory factory();

 private:
  bool init_ = true;
};

}  // namespace hring::election
