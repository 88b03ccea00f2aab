// Peterson (1982): O(n log n)-message leader election for unidirectional
// rings with unique identifiers (class K_1).
//
// Active processes carry a temporary identifier tid. In each phase an
// active process sends its tid (probe 1), learns the tid of the nearest
// active process to its left (ntid), relays it (probe 2), and learns the
// tid two active hops away (nntid). It survives the phase — adopting
// ntid — exactly when ntid > max(tid, nntid); otherwise it becomes a
// relay. At least half of the active processes drop each phase. A process
// receiving a probe equal to its own tid is the last active one and elects
// itself. The O(n log n) baseline of experiment E9.
#pragma once

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "support/assert.hpp"

namespace hring::election {

using sim::Context;
using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

// hring-algorithm: Peterson
class PetersonProcess final : public Process {
 public:
  PetersonProcess(ProcessId pid, Label id) : Process(pid, id), tid_(id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    switch (mode_) {
      case Mode::kInit:
        return true;
      case Mode::kActive:
        // Probes alternate strictly per phase; announcements never reach
        // an active process before it wins or relays.
        return head != nullptr &&
               head->kind == (expecting_second_ ? sim::MsgKind::kProbeTwo
                                                : sim::MsgKind::kProbeOne);
      case Mode::kRelay:
        return head != nullptr;
      case Mode::kWon:
        return head != nullptr && head->kind == sim::MsgKind::kFinishLabel;
      case Mode::kHalted:
        return false;
    }
    HRING_ASSERT(false);
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
    // id + tid + ntid + leader labels, a 5-valued mode (3 bits), the
    // expecting flag, and isLeader/done.
    return 4 * label_bits + 3 + 1 + 2;
  }

  [[nodiscard]] std::string debug_state() const override;
  void encode(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override;

  /// Rebinds the process to (pid, id) in its initial state (batch-engine
  /// per-cell restart).
  void restart(ProcessId pid, Label id) {
    restart_spec(pid, id);
    expecting_second_ = false;
    mode_ = Mode::kInit;
    tid_ = id;
    ntid_ = Label{};
  }

  [[nodiscard]] static sim::ProcessFactory factory();

 private:
  enum class Mode : std::uint8_t { kInit, kActive, kRelay, kWon, kHalted };

  bool expecting_second_ = false;  // active: waiting for probe 2
  Mode mode_ = Mode::kInit;
  Label tid_;   // temporary identifier carried while active
  Label ntid_;  // tid of the nearest active process to the left
};

}  // namespace hring::election
