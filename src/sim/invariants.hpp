// The leader-election specification's clauses (§II), written once, and the
// runtime monitor that checks the safety ones.
//
//   1. at most one process has isLeader = TRUE, and isLeader never reverts
//      TRUE → FALSE (irrevocability);
//   2. in the terminal configuration every process is done and halted,
//      exactly one process L is the leader, and every p.leader = L.id;
//   3. done never reverts; once p.done holds, some process L has
//      isLeader = TRUE with L.id = p.leader, and p.leader never changes
//      afterwards;
//   4. a process only halts after its done is TRUE.
//
// The clauses come in four parts: check_initial, check_transition (one
// process across one step), check_configuration and check_terminal
// (bullet 2). They read a SpecView (position, label and spec variables),
// not a Process: SpecMonitor builds the views from the live processes on
// every step of a simulated execution, the model checker
// (core/model_checker.cpp) from its interned local states on every
// explored configuration, core::verify_election from a run's snapshots
// and the batch engine from its recycled ring.
// Each part calls `report(what)` once per violation and builds the
// message only then. Labels are compared by raw value, so a check never
// adds to Label::comparison_count(): Stats::label_comparisons counts the
// algorithm's comparisons alone.
//
// The monitor records violations instead of aborting: the impossibility
// experiments (E2) deliberately drive algorithms outside their class and
// observe exactly these violations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace hring::sim {

/// One process's spec variables, captured before a step so the next
/// configuration can be checked against them.
struct SpecState {
  bool is_leader = false;
  bool done = false;
  bool halted = false;
  std::optional<Label> leader;

  [[nodiscard]] static SpecState of(const Process& p) {
    return SpecState{p.is_leader(), p.done(), p.halted(), p.leader()};
  }
};

/// What the clauses read of one process: its position, its label and its
/// spec variables. A live process gives one through of(); the model
/// checker builds them from its interned local states.
struct SpecView {
  ProcessId pid = 0;
  Label id{};
  SpecState state;

  [[nodiscard]] static SpecView of(const Process& p) {
    return SpecView{p.pid(), p.id(), SpecState::of(p)};
  }
};

/// "p3": how violation messages name a process.
[[nodiscard]] inline std::string spec_name(const SpecView& p) {
  std::string name = "p";
  name += std::to_string(p.pid);
  return name;
}

/// isLeader and done start FALSE.
template <class Report>
void check_initial(const SpecView& p, Report&& report) {
  if (p.state.is_leader) report(spec_name(p) + ".isLeader TRUE initially");
  if (p.state.done) report(spec_name(p) + ".done TRUE initially");
}

/// `p` after a step whose start found it in `before`: isLeader, done and
/// halted never revert, and p.leader never changes after done.
template <class Report>
void check_transition(const SpecState& before, const SpecView& p,
                      Report&& report) {
  const SpecState& now = p.state;
  if (before.is_leader && !now.is_leader) {
    report(spec_name(p) + ".isLeader reverted TRUE->FALSE");
  }
  if (before.done && !now.done) {
    report(spec_name(p) + ".done reverted TRUE->FALSE");
  }
  if (before.halted && !now.halted) {
    report(spec_name(p) + " resumed after halting");
  }
  if (before.done && before.leader.has_value() && now.done) {
    if (now.leader.has_value() &&
        now.leader->value() != before.leader->value()) {
      report(spec_name(p) + ".leader changed after done");
    }
  }
}

/// One configuration of `n` processes, `view(q)` being p_q's SpecView:
/// halted implies done, done implies p.leader is set and some current
/// leader carries it, and at most one process is a leader.
template <class ViewAt, class Report>
void check_configuration(std::size_t n, ViewAt&& view, Report&& report) {
  std::size_t leaders = 0;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const SpecView& p = view(pid);
    if (p.state.is_leader) ++leaders;
    if (p.state.halted && !p.state.done) {
      report(spec_name(p) + " halted before done");
    }
    if (!p.state.done) continue;
    const std::optional<Label>& believed = p.state.leader;
    if (!believed.has_value()) {
      report(spec_name(p) + ".done without p.leader set");
      continue;
    }
    bool matched = false;
    for (ProcessId q = 0; q < n && !matched; ++q) {
      const SpecView& cand = view(q);
      matched = cand.state.is_leader && cand.id.value() == believed->value();
    }
    if (!matched) {
      report(spec_name(p) + ".done but no leader carries label " +
             words::to_string(*believed));
    }
  }
  if (leaders > 1) {
    report(std::to_string(leaders) + " simultaneous leaders");
  }
}

/// Bullet 2 on a terminal configuration of `n` processes, `view(q)` being
/// p_q's SpecView: exactly one leader L, and every process done, halted
/// and with p.leader = L.id. With `expected`, L must also be p_expected.
/// Returns L's pid, or nothing (after one report, with no further checks)
/// when the leader count is not 1.
template <class ViewAt, class Report>
std::optional<ProcessId> check_terminal(std::size_t n, ViewAt&& view,
                                        std::optional<ProcessId> expected,
                                        Report&& report) {
  std::size_t leaders = 0;
  ProcessId leader = 0;
  for (ProcessId pid = 0; pid < n; ++pid) {
    if (view(pid).state.is_leader) {
      ++leaders;
      leader = pid;
    }
  }
  if (leaders != 1) {
    report("expected exactly 1 leader, found " + std::to_string(leaders));
    return std::nullopt;
  }
  const Label leader_label = view(leader).id;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const SpecView& p = view(pid);
    if (!p.state.done) {
      report(spec_name(p) + " not done in terminal configuration");
    }
    if (!p.state.halted) {
      report(spec_name(p) + " not halted in terminal configuration");
    }
    if (!p.state.leader.has_value()) {
      report(spec_name(p) + ".leader unset in terminal configuration");
    } else if (p.state.leader->value() != leader_label.value()) {
      report(spec_name(p) + ".leader = " + words::to_string(*p.state.leader) +
             " but L.id = " + words::to_string(leader_label));
    }
  }
  if (expected.has_value() && leader != *expected) {
    report("elected p" + std::to_string(leader) +
           " but the true leader is p" + std::to_string(*expected));
  }
  return leader;
}

class SpecMonitor : public Observer {
 public:
  void on_start(const ExecutionView& view) override;
  void on_step_end(const ExecutionView& view) override;

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool violated() const { return !violations_.empty(); }

  /// Step index of the first violation, if any.
  [[nodiscard]] std::optional<std::uint64_t> first_violation_step() const {
    return first_violation_step_;
  }

 private:
  void record(const ExecutionView& view, const std::string& what);

  std::vector<SpecState> shadows_;
  std::vector<std::string> violations_;
  std::optional<std::uint64_t> first_violation_step_;
  static constexpr std::size_t kMaxRecorded = 32;
};

}  // namespace hring::sim
