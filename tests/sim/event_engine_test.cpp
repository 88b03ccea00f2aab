#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include "ring/generator.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

using testing::DeafSenderProcess;
using testing::ForeverForwardProcess;
using testing::TrivialElectProcess;

ring::LabeledRing small_ring() {
  return ring::LabeledRing::from_values({1, 2, 3, 4});
}

TEST(EventEngineTest, TrivialElectionTerminates) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventEngine engine(small_ring(), TrivialElectProcess::make(), delay);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(), std::optional<ProcessId>(0));
  for (const auto& p : result.processes) {
    EXPECT_TRUE(p.done);
    EXPECT_TRUE(p.halted);
  }
}

TEST(EventEngineTest, UnitDelayTimeEqualsRingTraversal) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventEngine engine(small_ring(), TrivialElectProcess::make(), delay);
  const RunResult result = engine.run();
  // The announcement makes n hops of one time unit each; the last action
  // (p0 halting) happens at time n.
  EXPECT_DOUBLE_EQ(result.stats.time_units, 4.0);
}

TEST(EventEngineTest, FasterLinksFinishSooner) {
  // Slow-link delays are 1.0 on one link and 0.05 on the other three.
  EventEngine e1(small_ring(), TrivialElectProcess::make(),
                 Delay(DelayKind::kWorstCase, 0, 4));
  EventEngine e2(small_ring(), TrivialElectProcess::make(),
                 Delay(DelayKind::kSlowLink, 0, 4));
  const double t_slow = e1.run().stats.time_units;
  const double t_fast = e2.run().stats.time_units;
  EXPECT_LT(t_fast, t_slow);
}

TEST(EventEngineTest, UniformDelayStillDeliversEverything) {
  const Delay delay(DelayKind::kUniformRandom, 21, 4);
  EventEngine engine(small_ring(), TrivialElectProcess::make(), delay);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  EXPECT_LE(result.stats.time_units, 4.0);
  EXPECT_GT(result.stats.time_units, 0.0);
}

TEST(EventEngineTest, SlowLinkDominatesCompletionTime) {
  const Delay delay(DelayKind::kSlowLink, /*seed=*/2, 4);  // slow from p2
  EventEngine engine(small_ring(), TrivialElectProcess::make(), delay);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kTerminated);
  // Exactly one hop (2 -> 3) pays 1.0; the other three pay 0.05.
  EXPECT_NEAR(result.stats.time_units, 1.0 + 3 * 0.05, 1e-12);
}

TEST(EventEngineTest, DeafSendersDeadlock) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventEngine engine(small_ring(), DeafSenderProcess::make(), delay);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kDeadlock);
}

TEST(EventEngineTest, ForeverForwardExhaustsBudget) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventConfig config;
  config.max_actions = 300;
  EventEngine engine(small_ring(), ForeverForwardProcess::make(), delay,
                     config);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kBudgetExhausted);
}

TEST(EventEngineTest, MessageStatsMatchStepEngine) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventEngine engine(small_ring(), TrivialElectProcess::make(), delay);
  const RunResult result = engine.run();
  EXPECT_EQ(result.stats.messages_sent, 4u);
  EXPECT_EQ(result.stats.messages_received, 4u);
}

TEST(EventEngineTest, StopPredicateHonored) {
  const Delay delay(DelayKind::kWorstCase, 0, 4);
  EventEngine engine(small_ring(), ForeverForwardProcess::make(), delay);
  int called = 0;
  auto stop = [&called] { return ++called >= 5; };
  engine.set_stop_predicate(stop);
  const RunResult result = engine.run();
  EXPECT_EQ(result.outcome, Outcome::kViolation);
}

}  // namespace
}  // namespace hring::sim
