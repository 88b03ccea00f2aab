// Outcome of an execution.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/stats.hpp"

namespace hring::sim {

enum class Outcome {
  /// Terminal configuration reached: every process halted, all links empty.
  kTerminated,
  /// No process enabled but the configuration is not a clean terminal one
  /// (un-received messages or non-halted disabled processes).
  kDeadlock,
  /// The step/event budget ran out first.
  kBudgetExhausted,
  /// The invariant monitor reported a specification violation and the
  /// engine was configured to stop on violation.
  kViolation,
};

[[nodiscard]] const char* outcome_name(Outcome outcome);

/// Final state of one process, copied out of the engine.
struct ProcessSnapshot {
  ProcessId pid = 0;
  Label id{};
  bool is_leader = false;
  bool done = false;
  bool halted = false;
  std::optional<Label> leader;
  std::string debug;
};

/// Copies `p`'s final state (the engines and the in-host runtime).
[[nodiscard]] inline ProcessSnapshot snapshot_of(const Process& p) {
  return {p.pid(),    p.id(),     p.is_leader(),  p.done(),
          p.halted(), p.leader(), p.debug_state()};
}

/// The unique leader's pid, if exactly one snapshot has isLeader.
[[nodiscard]] inline std::optional<ProcessId> unique_leader(
    const std::vector<ProcessSnapshot>& processes) {
  std::optional<ProcessId> found;
  for (const auto& p : processes) {
    if (!p.is_leader) continue;
    if (found.has_value()) return std::nullopt;
    found = p.pid;
  }
  return found;
}

struct RunResult {
  Outcome outcome = Outcome::kDeadlock;
  Stats stats;
  std::vector<ProcessSnapshot> processes;
  /// Human-readable invariant violations, if any (also non-empty when the
  /// run continued past a violation with stop_on_violation = false).
  std::vector<std::string> violations;

  /// The unique leader's pid, if exactly one process has isLeader.
  [[nodiscard]] std::optional<ProcessId> leader_pid() const {
    return unique_leader(processes);
  }
};

inline const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kTerminated:
      return "terminated";
    case Outcome::kDeadlock:
      return "deadlock";
    case Outcome::kBudgetExhausted:
      return "budget-exhausted";
    case Outcome::kViolation:
      return "violation";
  }
  return "?";
}

}  // namespace hring::sim
