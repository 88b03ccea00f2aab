#include "core/verification.hpp"

#include "sim/invariants.hpp"

namespace hring::core {

std::string VerificationReport::to_string() const {
  if (ok) return "ok";
  std::string out = "FAILED:";
  for (const auto& e : errors) {
    out += "\n  - " + e;
  }
  return out;
}

VerificationReport verify_election(const ring::LabeledRing& ring,
                                   const sim::RunResult& result,
                                   bool check_true_leader) {
  VerificationReport report;
  if (result.outcome != sim::Outcome::kTerminated) {
    report.fail(std::string("outcome is ") + outcome_name(result.outcome) +
                ", expected terminated");
  }
  for (const auto& v : result.violations) {
    report.fail("spec violation: " + v);
  }
  if (result.processes.size() != ring.size()) {
    report.fail("snapshot count mismatch");
    return report;
  }

  // check_terminal reads `expected` only when exactly one process was
  // elected, so the true leader (whose precondition is an asymmetric ring)
  // is computed only then.
  std::optional<sim::ProcessId> expected;
  if (check_true_leader && result.leader_pid().has_value()) {
    expected = ring.true_leader();
  }
  sim::check_terminal(
      ring.size(),
      [&](sim::ProcessId pid) {
        const sim::ProcessSnapshot& p = result.processes[pid];
        return sim::SpecView{
            p.pid, ring.label(p.pid),
            sim::SpecState{p.is_leader, p.done, p.halted, p.leader}};
      },
      expected, [&report](std::string what) { report.fail(std::move(what)); });
  return report;
}

}  // namespace hring::core
