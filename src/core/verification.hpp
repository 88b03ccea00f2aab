// Terminal-state verifier for the §II leader-election specification.
//
// The SpecMonitor checks the safety bullets during the run; this verifier
// checks how it ended: a clean terminal configuration (every process
// halted, all links drained) with no recorded violation, and bullet 2 on
// the final snapshots through sim::check_terminal, the clause the batch
// engine and the model checker also apply — exactly one leader, every
// process done, halted and agreeing on the leader's label, and, for the
// paper's algorithms, the elected process being the *true leader* (the
// Lyndon-word process of §IV).
#pragma once

#include <string>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/run_result.hpp"

namespace hring::core {

struct VerificationReport {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ok = false;
    errors.push_back(std::move(what));
  }

  [[nodiscard]] std::string to_string() const;
};

/// Verifies `result` against the specification for `ring`.
/// `check_true_leader` additionally requires the elected process to be
/// ring.true_leader() — pass elects_true_leader(algorithm) (and only for
/// asymmetric rings).
[[nodiscard]] VerificationReport verify_election(
    const ring::LabeledRing& ring, const sim::RunResult& result,
    bool check_true_leader);

}  // namespace hring::core
