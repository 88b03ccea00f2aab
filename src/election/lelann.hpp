// Le Lann (1977): the original ring election, for unidirectional rings with
// unique identifiers (class K_1).
//
// Every process launches a token with its label and forwards every other
// token exactly once; a token dies when it returns to its originator. FIFO
// links guarantee that by the time a process's own token returns it has
// seen every label in the ring, so it knows the maximum; the maximum
// process elects itself and floods the announcement. Exactly n² candidate
// messages — the deterministic-cost baseline of experiment E9.
#pragma once

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace hring::election {

using sim::Context;
using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

// hring-algorithm: LeLann
class LeLannProcess final : public Process {
 public:
  LeLannProcess(ProcessId pid, Label id) : Process(pid, id), best_(id) {}

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
    // id + best + leader labels, plus INIT/isLeader/done Booleans.
    return 3 * label_bits + 3;
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
    best_ = id;
  }

  [[nodiscard]] static sim::ProcessFactory factory();

 private:
  bool init_ = true;
  Label best_;  // maximum label seen so far (starts at the own label)
};

}  // namespace hring::election
