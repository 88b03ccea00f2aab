// Algorithm B_k (§V, Table 2, Figure 2): space-frugal leader election for
// A ∩ K_k.
//
// B_k computes the lexicographic minimum of the LLabels sequences one
// position per phase. In phase i every still-active process p holds
// p.guest = LLabels(p)[i]; guests circulate among the active processes, an
// active process that sees a smaller guest turns passive (B4), and a
// process that has seen its own guest k times knows the phase is over (B5)
// and triggers the ⟨PHASE_SHIFT⟩ barrier, which shifts every guest one
// step clockwise (B6/B8). A process whose guest has been its own label
// k+1 times (p.outer) has survived more than n phases and is the true
// leader (B9); ⟨FINISH, id⟩ then circulates and everyone halts (B10/B11).
//
// Bounds (Theorem 4): time O(k²n²), messages O(k²n²), space per process
// 2⌈log k⌉ + 3b + 5 bits.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "support/assert.hpp"

namespace hring::election {

using sim::Context;
using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

enum class BkState : std::uint8_t {
  kInit,
  kCompute,
  kShift,
  kPassive,
  kWin,
  kHalt,
};

[[nodiscard]] const char* bk_state_name(BkState state);

// hring-algorithm: Bk space=2*log_k+3*b+5
// (Theorem 4: B_k elects in U* ∩ K_k with 2⌈log k⌉ + 3b + 5 bits per
// process.)
class BkProcess final : public Process {
 public:
  /// One row of the phase history (Figure 1 reproduction): the state of
  /// this process at the start of phase `phase`.
  struct PhaseRecord {
    std::size_t phase = 0;
    Label guest{};
    /// True when the process enters the phase still competing (COMPUTE or
    /// WIN), false when it enters passive.
    bool active = false;
  };

  /// Requires k >= 1. The paper states B_k for k >= 2; k = 1 also works
  /// (then U* ∩ K_1 = K_1) and is exercised by tests.
  /// `record_history` enables the per-phase log used by E5; it is
  /// instrumentation and never part of the space accounting.
  BkProcess(ProcessId pid, Label id, std::size_t k,
            bool record_history = false);

  [[nodiscard]] bool enabled(const Message* head) const override {
    switch (state_) {
      case BkState::kInit:
        // B1: the unique no-reception action.
        return true;
      case BkState::kCompute:
        // B2-B5 receive label tokens only; by Lemma 11 no other kind can
        // be at the head here in a legal execution — leaving such a
        // message unmatched makes the deadlock detectable instead of
        // hiding it.
        return head != nullptr && head->kind == sim::MsgKind::kToken;
      case BkState::kShift:
        // B6/B9 receive ⟨PHASE_SHIFT, x⟩ only (Lemma 11 again).
        return head != nullptr && head->kind == sim::MsgKind::kPhaseShift;
      case BkState::kPassive:
        // B7 (tokens), B8 (phase shifts), B10 (finish) — everything
        // matches.
        return head != nullptr;
      case BkState::kWin:
        // B11: only ⟨FINISH, x⟩ remains in flight for the winner.
        return head != nullptr && head->kind == sim::MsgKind::kFinishLabel;
      case BkState::kHalt:
        return false;  // also unreachable: halt_self() removes the process
    }
    HRING_ASSERT(false);
  }

  void fire(const Message* head, Context& ctx) override {
    fire<Context>(head, ctx);
  }

  /// Actions B1–B11, written once for every engine: instantiated for
  /// sim::Context and for the batch engine's election::BatchFireContext.
  template <class Ctx>
  void fire(const Message* head, Ctx& ctx);

  [[nodiscard]] std::size_t space_bits(
      std::size_t label_bits) const override {
    // Paper accounting (Theorem 4): inner and outer are never incremented
    // past k (⌈log k⌉ bits each), three labels (id, guest, leader), the
    // 6-valued state (3 bits) plus isLeader and done (2 bits) = 5 bits.
    std::size_t log_k = 0;
    while ((std::size_t{1} << log_k) < k_) ++log_k;
    return 2 * log_k + 3 * label_bits + 5;
  }

  [[nodiscard]] std::string debug_state() const override;
  void encode(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override;

  [[nodiscard]] BkState state() const { return state_; }
  [[nodiscard]] Label guest() const { return guest_; }
  [[nodiscard]] std::size_t inner() const { return inner_; }
  [[nodiscard]] std::size_t outer() const { return outer_; }
  /// Phase the process is currently in (1-based; 0 before B1 fires).
  [[nodiscard]] std::size_t phase() const { return phase_; }
  [[nodiscard]] const std::vector<PhaseRecord>& history() const {
    return history_;
  }

  /// Rebinds the process to (pid, id) in its initial state. The phase
  /// history keeps its capacity, so the batch engine's recycled ring stays
  /// allocation-free.
  void restart(ProcessId pid, Label id);

  [[nodiscard]] static sim::ProcessFactory factory(std::size_t k,
                                                   bool record_history =
                                                       false);

 private:
  void enter_phase(Label new_guest, bool active);

  // hring-state: excluded(a-priori knowledge: every process knows k)
  std::size_t k_;
  BkState state_ = BkState::kInit;
  Label guest_{};
  // hring-state: bits=log_k
  std::size_t inner_ = 1;  // occurrences of guest seen this phase
  // hring-state: bits=log_k
  std::size_t outer_ = 1;  // phases whose guest was the own label

  // Instrumentation (excluded from space accounting):
  // hring-state: excluded(instrumentation: Figure 1 phase counter)
  std::size_t phase_ = 0;
  // hring-state: excluded(instrumentation: history toggle)
  bool record_history_;
  // hring-state: excluded(instrumentation: Figure 1 phase log)
  std::vector<PhaseRecord> history_;
};

}  // namespace hring::election
