#include "core/verification.hpp"

#include "words/label.hpp"

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

  std::size_t leaders = 0;
  std::optional<sim::ProcessId> leader_pid;
  for (const auto& p : result.processes) {
    if (p.is_leader) {
      ++leaders;
      leader_pid = p.pid;
    }
  }
  if (leaders != 1) {
    report.fail("expected exactly 1 leader, found " +
                std::to_string(leaders));
    return report;
  }

  const words::Label leader_label = ring.label(*leader_pid);
  for (const auto& p : result.processes) {
    std::string who = "p";
    who += std::to_string(p.pid);
    if (!p.done) report.fail(who + " not done in terminal configuration");
    if (!p.halted) report.fail(who + " not halted in terminal configuration");
    if (!p.leader.has_value()) {
      report.fail(who + ".leader unset in terminal configuration");
    } else if (!(*p.leader == leader_label)) {
      report.fail(who + ".leader = " + words::to_string(*p.leader) +
                  " but L.id = " + words::to_string(leader_label));
    }
  }

  if (check_true_leader) {
    const ring::ProcessIndex expected = ring.true_leader();
    if (*leader_pid != expected) {
      report.fail("elected p" + std::to_string(*leader_pid) +
                  " but the true leader is p" + std::to_string(expected));
    }
  }
  return report;
}

}  // namespace hring::core
