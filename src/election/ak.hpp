// Algorithm A_k (§IV, Table 1): time-optimal leader election for A ∩ K_k.
//
// Every process initiates a token carrying its label; tokens circulate
// forever during the string-growth phase, and each process appends every
// received label to its `string`, a growing prefix of LLabels(p). By
// Lemma 6, once the string holds 2k+1 copies of some label it determines
// the whole ring: srp(string) = LLabels(p)^n. The process whose srp is a
// Lyndon word — the true leader — elects itself (action A3) and floods
// ⟨FINISH⟩; everyone else learns the leader's label as LW(srp(string))[1]
// (action A4) and halts, while the leader swallows the remaining tokens
// (A5) and halts when ⟨FINISH⟩ returns (A6).
//
// Bounds (Theorem 2): time ≤ (2k+2)n, messages ≤ n²(2k+1) + n, space per
// process ≤ (2k+1)·n·b + 2b + 3 bits.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "words/periodicity.hpp"

namespace hring::election {

using sim::Context;
using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

/// The paper's Leader(σ) predicate: σ contains at least 2k+1 copies of
/// some label and srp(σ) = LW(srp(σ)) (i.e. srp(σ) is a Lyndon word).
/// Exposed standalone for unit tests; AkProcess evaluates it incrementally.
[[nodiscard]] bool leader_predicate(const words::LabelSequence& sigma,
                                    std::size_t k);

// hring-algorithm: Ak space=(2*k+1)*n*b+2*b+3
// (Theorem 2: A_k elects in K_k with (2k+1)·n·b + 2b + 3 bits per process.)
class AkProcess final : public Process {
 public:
  /// Requires k >= 1: the multiplicity bound the class A ∩ K_k promises.
  AkProcess(ProcessId pid, Label id, std::size_t k);

  [[nodiscard]] bool enabled(const Message* head) const override {
    // A1 is the unique no-reception action; afterwards every incoming
    // message matches some guard: tokens match A2/A3 (not leader) or A5
    // (leader), ⟨FINISH⟩ matches A4 (not leader) or A6 (leader).
    if (init_) return true;
    return head != nullptr;
  }

  void fire(const Message* head, Context& ctx) override {
    fire<Context>(head, ctx);
  }

  /// Actions A1–A6, written once for every engine: instantiated for
  /// sim::Context and for the batch engine's election::BatchFireContext.
  template <class Ctx>
  void fire(const Message* head, Ctx& ctx);

  [[nodiscard]] std::size_t space_bits(
      std::size_t label_bits) const override {
    // Paper accounting: |string| labels + p.id + p.leader (2 labels) +
    // 3 Booleans (INIT, isLeader, done). The border array and the cached
    // rotation are excluded: they are recomputable accelerators (see
    // below).
    return (string_.size() + 2) * label_bits + 3;
  }

  [[nodiscard]] std::string debug_state() const override;
  void encode(std::vector<std::uint64_t>& out) const override;
  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override;

  /// Current contents of p.string (a prefix of LLabels(p)).
  [[nodiscard]] const words::LabelSequence& grown_string() const {
    return string_.sequence();
  }

  /// Rebinds the process to (pid, id) in its initial state. Buffers keep
  /// their capacity, so the batch engine's recycled ring stays
  /// allocation-free.
  void restart(ProcessId pid, Label id);

  /// Factory for the engines: every process runs A_k with the same k.
  [[nodiscard]] static sim::ProcessFactory factory(std::size_t k);

 private:
  /// Appends x to string and returns Leader(string) for the new string —
  /// exactly Leader(p.string . x) of the guards of A2/A3.
  bool append_and_test(Label x);

  /// Occurrence count of `value`, creating a zero entry on first sight.
  [[nodiscard]] std::size_t& count_slot(Label::rep_type value);

  // hring-state: excluded(a-priori knowledge: every process knows k)
  std::size_t k_;
  bool init_ = true;
  /// p.string plus its incrementally-maintained border array and srp's
  /// cached least rotation (both are accelerators, not algorithm state:
  /// srp and its rotation could be recomputed from the string at every
  /// step with identical behaviour). The guards' Leader(p.string·x) and
  /// A4's LW(srp(p.string))[1] both read that rotation, and Booth's scan
  /// runs only when srp changes, i.e. once per repeating prefix, not once
  /// per token: once some label has 2k+1 copies, srp is fixed at
  /// LLabels(p)^n (Lemma 6), so later tokens pay no scan.
  // hring-state: bits=(2*k+1)*n*b
  words::IncrementalPeriod string_;
  /// Occurrence count per label, for the 2k+1 threshold. A flat vector:
  /// a ring holds at most n distinct labels, so the linear scan beats a
  /// node-based map on the per-token hot path, and clear() keeps capacity
  /// across the model checker's decode-based restores.
  // hring-state: excluded(accelerator: recomputable from string_)
  std::vector<std::pair<Label::rep_type, std::size_t>> counts_;
  // hring-state: excluded(accelerator: recomputable from string_)
  std::size_t max_count_ = 0;
};

}  // namespace hring::election
