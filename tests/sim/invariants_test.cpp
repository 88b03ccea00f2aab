#include "sim/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

/// Every process declares itself leader at init: violates uniqueness.
class EveryoneLeadsProcess final : public Process {
 public:
  EveryoneLeadsProcess(ProcessId pid, Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    return init_ || head != nullptr;
  }

  void fire(const Message*, Context& ctx) override {
    if (init_) {
      init_ = false;
      declare_leader();
      set_leader_label(id());
      set_done();
      ctx.send(Message::finish_label(id()));
      return;
    }
    ctx.consume();
    halt_self();
  }

  [[nodiscard]] std::size_t space_bits(std::size_t b) const override {
    return 2 * b + 3;
  }
  [[nodiscard]] std::string debug_state() const override { return "X"; }

  [[nodiscard]] static ProcessFactory make() {
    return [](ProcessId pid, Label id) {
      return std::make_unique<EveryoneLeadsProcess>(pid, id);
    };
  }

 private:
  bool init_ = true;
};

/// Halts at init without ever setting done: violates bullet 4.
class HaltsEarlyProcess final : public Process {
 public:
  HaltsEarlyProcess(ProcessId pid, Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message*) const override { return init_; }

  void fire(const Message*, Context&) override {
    init_ = false;
    halt_self();
  }

  [[nodiscard]] std::size_t space_bits(std::size_t b) const override {
    return b + 1;
  }
  [[nodiscard]] std::string debug_state() const override { return "H"; }

  [[nodiscard]] static ProcessFactory make() {
    return [](ProcessId pid, Label id) {
      return std::make_unique<HaltsEarlyProcess>(pid, id);
    };
  }

 private:
  bool init_ = true;
};

/// Declares done without any leader existing: violates bullet 3.
class DoneWithoutLeaderProcess final : public Process {
 public:
  DoneWithoutLeaderProcess(ProcessId pid, Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message*) const override { return init_; }

  void fire(const Message*, Context&) override {
    init_ = false;
    set_leader_label(id());
    set_done();
    halt_self();
  }

  [[nodiscard]] std::size_t space_bits(std::size_t b) const override {
    return b + 1;
  }
  [[nodiscard]] std::string debug_state() const override { return "D"; }

  [[nodiscard]] static ProcessFactory make() {
    return [](ProcessId pid, Label id) {
      return std::make_unique<DoneWithoutLeaderProcess>(pid, id);
    };
  }

 private:
  bool init_ = true;
};

ring::LabeledRing small_ring() {
  return ring::LabeledRing::from_values({1, 2, 3});
}

TEST(SpecMonitorTest, CleanElectionHasNoViolations) {
  StepEngine engine(small_ring(), testing::TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  EXPECT_FALSE(monitor.violated());
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_FALSE(monitor.first_violation_step().has_value());
}

TEST(SpecMonitorTest, DetectsMultipleLeaders) {
  StepEngine engine(small_ring(), EveryoneLeadsProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  engine.run();
  ASSERT_TRUE(monitor.violated());
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("simultaneous leaders") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  ASSERT_TRUE(monitor.first_violation_step().has_value());
  EXPECT_EQ(*monitor.first_violation_step(), 1u);
}

TEST(SpecMonitorTest, DetectsHaltBeforeDone) {
  StepEngine engine(small_ring(), HaltsEarlyProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  engine.run();
  ASSERT_TRUE(monitor.violated());
  EXPECT_NE(monitor.violations()[0].find("halted before done"),
            std::string::npos);
}

TEST(SpecMonitorTest, DetectsDoneWithoutLeader) {
  StepEngine engine(small_ring(), DoneWithoutLeaderProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  engine.run();
  ASSERT_TRUE(monitor.violated());
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("no leader carries label") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SpecMonitorTest, StopPredicateIntegration) {
  StepEngine engine(small_ring(), EveryoneLeadsProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  auto stop = [&monitor] { return monitor.violated(); };
  engine.set_stop_predicate(stop);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kViolation);
  // Stopped at the first violating step, not at termination.
  EXPECT_EQ(result.stats.steps, 1u);
}

}  // namespace
}  // namespace hring::sim
