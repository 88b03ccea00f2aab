// SpecMonitor negative paths that no real Process can produce through the
// protected mutators (declare_leader/set_done/halt_self only ever move
// forward): isLeader and done reverts, resuming after halt, and leader
// re-targeting after done. A ScriptedProcess presents an arbitrary
// trajectory through restart_spec() and the forward mutators, and a
// minimal ExecutionView drives the monitor directly — no engine in the
// loop, so each check is exercised in isolation.
#include "sim/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/link.hpp"
#include "sim/process.hpp"

namespace hring::sim {
namespace {

/// Spec variables presented to the monitor for one process at one step.
struct SpecState {
  bool is_leader = false;
  bool done = false;
  bool halted = false;
  std::optional<Label> leader;
};

class ScriptedProcess final : public Process {
 public:
  ScriptedProcess(ProcessId pid, Label id) : Process(pid, id) {}

  SpecState now;

  /// Sets the spec variables to `now`: restart_spec() clears them and the
  /// mutators set what `now` holds, so a revert is one more call.
  void present() {
    restart_spec(pid(), id());
    if (now.is_leader) declare_leader();
    if (now.done) set_done();
    if (now.halted) halt_self();
    if (now.leader.has_value()) set_leader_label(*now.leader);
  }

  // Never fired: the monitor only reads spec variables.
  [[nodiscard]] bool enabled(const Message*) const override { return false; }
  void fire(const Message*, Context&) override {}
  [[nodiscard]] std::size_t space_bits(std::size_t b) const override {
    return b;
  }
  [[nodiscard]] std::string debug_state() const override { return "S"; }
};

/// Hand-cranked execution: the test mutates the scripted processes and
/// advances the step counter between on_step_end calls. Each read of a
/// process presents its scripted state.
class ScriptedView final : public ExecutionView {
 public:
  explicit ScriptedView(std::size_t n) {
    for (ProcessId pid = 0; pid < n; ++pid) {
      procs_.push_back(std::make_unique<ScriptedProcess>(
          pid, Label(pid + 1)));
    }
    links_.resize(n);
  }

  [[nodiscard]] std::size_t process_count() const override {
    return procs_.size();
  }
  [[nodiscard]] const Process& process(ProcessId pid) const override {
    procs_[pid]->present();
    return *procs_[pid];
  }
  [[nodiscard]] const Link& out_link(ProcessId pid) const override {
    return links_[pid];
  }
  [[nodiscard]] std::uint64_t current_step() const override { return step_; }
  [[nodiscard]] double current_time() const override {
    return static_cast<double>(step_);
  }

  [[nodiscard]] ScriptedProcess& at(ProcessId pid) { return *procs_[pid]; }
  void advance() { ++step_; }

 private:
  std::vector<std::unique_ptr<ScriptedProcess>> procs_;
  std::vector<Link> links_;
  std::uint64_t step_ = 0;
};

bool mentions(const SpecMonitor& monitor, const std::string& needle) {
  for (const auto& v : monitor.violations()) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(SpecMonitorViolationTest, LeaderRevertReported) {
  ScriptedView view(3);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(1).now.is_leader = true;
  view.advance();
  monitor.on_step_end(view);
  EXPECT_FALSE(monitor.violated());

  view.at(1).now.is_leader = false;  // irrevocability broken
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p1.isLeader reverted TRUE->FALSE"));
  ASSERT_TRUE(monitor.first_violation_step().has_value());
  EXPECT_EQ(*monitor.first_violation_step(), 2u);
}

TEST(SpecMonitorViolationTest, DoneRevertReported) {
  ScriptedView view(2);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(0).now.is_leader = true;
  view.at(0).now.leader = Label(1);
  view.at(0).now.done = true;
  view.advance();
  monitor.on_step_end(view);
  EXPECT_FALSE(monitor.violated());

  view.at(0).now.done = false;  // done must be stable
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p0.done reverted TRUE->FALSE"));
}

TEST(SpecMonitorViolationTest, ResumeAfterHaltReported) {
  ScriptedView view(2);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(1).now.is_leader = true;
  view.at(1).now.leader = Label(2);
  view.at(1).now.done = true;
  view.at(1).now.halted = true;
  view.advance();
  monitor.on_step_end(view);
  EXPECT_FALSE(monitor.violated());

  view.at(1).now.halted = false;  // (halt) means *never* another action
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p1 resumed after halting"));
}

TEST(SpecMonitorViolationTest, HaltWithoutDoneReported) {
  ScriptedView view(2);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(0).now.halted = true;  // bullet 4: done must precede halt
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p0 halted before done"));
}

TEST(SpecMonitorViolationTest, LeaderRetargetAfterDoneReported) {
  ScriptedView view(3);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(0).now.is_leader = true;
  view.at(2).now.done = true;
  view.at(2).now.leader = Label(1);  // p0's label: consistent
  view.advance();
  monitor.on_step_end(view);
  EXPECT_FALSE(monitor.violated());

  view.at(2).now.leader = Label(2);  // belief changed after done
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p2.leader changed after done"));
}

TEST(SpecMonitorViolationTest, LeaderLabelMismatchReported) {
  ScriptedView view(3);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(0).now.is_leader = true;   // p0 leads with label 1
  view.at(2).now.done = true;
  view.at(2).now.leader = Label(3);  // …but p2 believes in label 3
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p2.done but no leader carries label 3"));
}

TEST(SpecMonitorViolationTest, DoneWithoutLeaderVariableReported) {
  ScriptedView view(2);
  SpecMonitor monitor;
  monitor.on_start(view);
  view.at(1).now.done = true;  // done but p.leader never assigned
  view.advance();
  monitor.on_step_end(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p1.done without p.leader set"));
}

TEST(SpecMonitorViolationTest, InitialStateViolationsReported) {
  ScriptedView view(2);
  view.at(0).now.is_leader = true;
  view.at(1).now.done = true;
  SpecMonitor monitor;
  monitor.on_start(view);
  ASSERT_TRUE(monitor.violated());
  EXPECT_TRUE(mentions(monitor, "p0.isLeader TRUE initially"));
  EXPECT_TRUE(mentions(monitor, "p1.done TRUE initially"));
}

}  // namespace
}  // namespace hring::sim
