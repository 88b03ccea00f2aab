#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "ring/generator.hpp"
#include "sim/trace.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

using testing::DeafSenderProcess;
using testing::ForeverForwardProcess;
using testing::TrivialElectProcess;

ring::LabeledRing small_ring() {
  return ring::LabeledRing::from_values({1, 2, 3, 4});
}

TEST(StepEngineTest, TrivialElectionTerminatesCleanly) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  ASSERT_EQ(result.processes.size(), 4u);
  EXPECT_TRUE(result.processes[0].is_leader);
  for (const auto& p : result.processes) {
    EXPECT_TRUE(p.done);
    EXPECT_TRUE(p.halted);
    ASSERT_TRUE(p.leader.has_value());
    EXPECT_EQ(*p.leader, Label(1));
  }
  EXPECT_EQ(result.leader_pid(), std::optional<ProcessId>(0));
}

TEST(StepEngineTest, MessageCountsBalance) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  // One FINISH_LABEL traverses the ring exactly once: n messages.
  EXPECT_EQ(result.stats.messages_sent, 4u);
  EXPECT_EQ(result.stats.messages_received, 4u);
  EXPECT_EQ(result.stats.sent_by_kind[kind_index(MsgKind::kFinishLabel)],
            4u);
  EXPECT_GT(result.stats.message_bits_sent, 0u);
}

TEST(StepEngineTest, SynchronousStepCountIsRingDiameterPlusInit) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  // Step 1: all init (p0 sends). Steps 2..4: announcement hops to p1..p3.
  // Step 5: returns to p0 which halts.
  EXPECT_EQ(result.stats.steps, 5u);
}

TEST(StepEngineTest, DeafSendersDeadlock) {
  StepEngine engine(small_ring(), DeafSenderProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kDeadlock);
  EXPECT_EQ(result.stats.messages_sent, 4u);
  EXPECT_EQ(result.stats.messages_received, 0u);
}

TEST(StepEngineTest, ForeverForwardExhaustsBudget) {
  StepConfig config;
  config.max_steps = 500;
  StepEngine engine(small_ring(), ForeverForwardProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0), config);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kBudgetExhausted);
  EXPECT_EQ(result.stats.steps, 500u);
}

TEST(StepEngineTest, StopPredicateShortCircuits) {
  StepEngine engine(small_ring(), ForeverForwardProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  int steps_seen = 0;
  auto stop = [&steps_seen] { return ++steps_seen >= 3; };
  engine.set_stop_predicate(stop);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kViolation);
  EXPECT_EQ(result.stats.steps, 3u);
}

class SchedulerSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerSweep, TrivialElectionTerminatesUnderEveryScheduler) {
  constexpr SchedulerKind kKinds[] = {
      SchedulerKind::kSynchronous, SchedulerKind::kRoundRobin,
      SchedulerKind::kRandomSingle, SchedulerKind::kRandomSubset,
      SchedulerKind::kConvoy};
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(kKinds[GetParam()], 5));
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(), std::optional<ProcessId>(0));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::Range(0, 5));

TEST(StepEngineTest, TraceRecordsActions) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  TraceRecorder trace;
  engine.add_observer(&trace);
  engine.run();
  const auto census = trace.action_census();
  // 4 init actions, 3 learn, 1 halt.
  ASSERT_EQ(census.size(), 3u);
  EXPECT_EQ(census[0].first, "halt");
  EXPECT_EQ(census[0].second, 1u);
  EXPECT_EQ(census[1].first, "init");
  EXPECT_EQ(census[1].second, 4u);
  EXPECT_EQ(census[2].first, "learn");
  EXPECT_EQ(census[2].second, 3u);
}

TEST(StepEngineTest, PeakSpaceTracked) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  // 2 labels * 3 bits (labels 1..4) + 3 flag bits.
  EXPECT_EQ(result.stats.peak_space_bits, 2u * 3u + 3u);
}

TEST(StepEngineTest, FairnessForcesStarvedProcess) {
  // The convoy scheduler always picks the smallest pid; without the
  // fairness bound the announcement would still progress (each firing
  // shifts enablement), so use forever-forwarders: p0 stays enabled
  // forever and convoy would starve everyone else. The aging bound
  // (kFairnessBound steps) must still let every process fire.
  StepConfig config;
  config.max_steps = 2000;
  StepEngine engine(small_ring(), ForeverForwardProcess::make(),
                    Scheduler(SchedulerKind::kConvoy, 0), config);
  TraceRecorder trace;
  engine.add_observer(&trace);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kBudgetExhausted);
  std::array<bool, 4> fired{};
  for (const auto& entry : trace.entries()) {
    fired[entry.event.pid] = true;
  }
  for (std::size_t pid = 0; pid < 4; ++pid) {
    EXPECT_TRUE(fired[pid]) << "p" << pid << " starved";
  }
}

TEST(StepEngineTest, LabelComparisonsAccounted) {
  StepEngine engine(small_ring(), TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  const RunResult result = engine.run();
  // TrivialElect performs no label comparisons at all.
  EXPECT_EQ(result.stats.label_comparisons, 0u);
}

}  // namespace
}  // namespace hring::sim
