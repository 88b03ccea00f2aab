// TelemetryObserver against ground truth the engines already expose:
// action counters vs TraceRecorder's census, latency samples vs receive
// counts, link-depth samples vs send counts, the space histogram vs
// Stats::peak_space_bits, and the message-span cap.
#include "telemetry/telemetry_observer.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/election_driver.hpp"
#include "election/algorithm.hpp"
#include "election/bk.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/trace.hpp"

namespace hring::telemetry {
namespace {

ring::LabeledRing figure1_ring() {
  return ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
}

/// Slot a value lands in for the histogram's edge layout (test-side mirror
/// of Histogram::record's binary search).
std::size_t slot_of(const Histogram& h, double v) {
  const auto& edges = h.edges();
  return static_cast<std::size_t>(
      std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
}

TEST(TelemetryObserver, ActionCountersMatchTraceCensus) {
  const auto ring = figure1_ring();
  sim::StepEngine engine(ring, election::BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  sim::TraceRecorder trace;
  TelemetryObserver telemetry;
  engine.add_observer(&trace);
  engine.add_observer(&telemetry);
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);

  const auto census = trace.action_census();
  ASSERT_FALSE(census.empty());
  std::uint64_t census_total = 0;
  for (const auto& [action, count] : census) {
    const Counter* counter =
        telemetry.metrics().find_counter("action." + action);
    ASSERT_NE(counter, nullptr) << "missing counter for " << action;
    EXPECT_EQ(counter->value, count) << action;
    census_total += count;
  }
  const Counter* actions = telemetry.metrics().find_counter("actions");
  ASSERT_NE(actions, nullptr);
  EXPECT_EQ(actions->value, census_total);
  EXPECT_EQ(actions->value, result.stats.actions);
}

TEST(TelemetryObserver, LatencyCountMatchesReceivesOnHonestLinks) {
  const auto ring = figure1_ring();
  sim::StepEngine engine(ring, election::BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  TelemetryObserver telemetry;
  engine.add_observer(&telemetry);
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);

  const Histogram* latency = telemetry.metrics().find_histogram(
      TelemetryObserver::kMessageLatencyHistogram);
  ASSERT_NE(latency, nullptr);
  // Honest links keep the FIFO mirror in sync: every receive matches.
  EXPECT_EQ(latency->count(), result.stats.messages_received);
  EXPECT_EQ(
      telemetry.metrics().find_counter("telemetry.unmatched_receives")->value,
      0u);
  EXPECT_EQ(telemetry.message_spans().size(), result.stats.messages_received);
}

TEST(TelemetryObserver, EventEngineUnitDelaysLandInTheirBucket) {
  const auto ring = figure1_ring();
  sim::EventEngine engine(
      ring, election::BkProcess::factory(3),
      sim::Delay(sim::DelayKind::kWorstCase, 0, ring.size()));
  TelemetryObserver telemetry;
  engine.add_observer(&telemetry);
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);

  const Histogram* latency = telemetry.metrics().find_histogram(
      TelemetryObserver::kMessageLatencyHistogram);
  ASSERT_NE(latency, nullptr);
  ASSERT_GT(latency->count(), 0u);
  // Every hop takes exactly one normalized time unit.
  EXPECT_DOUBLE_EQ(latency->min(), 1.0);
  EXPECT_DOUBLE_EQ(latency->max(), 1.0);
  EXPECT_EQ(latency->bucket(slot_of(*latency, 1.0)), latency->count());
}

TEST(TelemetryObserver, LinkDepthSampledAtEachSend) {
  const auto ring = figure1_ring();
  sim::StepEngine engine(ring, election::BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  TelemetryObserver telemetry;
  engine.add_observer(&telemetry);
  const auto result = engine.run();

  const Histogram* depth = telemetry.metrics().find_histogram(
      TelemetryObserver::kLinkDepthHistogram);
  ASSERT_NE(depth, nullptr);
  // One sample per sending action; B_k actions send at most one message,
  // so here the sample count is exactly the send count.
  EXPECT_EQ(depth->count(), result.stats.messages_sent);
  // Link occupancy peaks immediately after a send and nothing pops the
  // link before the observer samples it, so the histogram's max is the
  // engines' high-water statistic exactly.
  EXPECT_DOUBLE_EQ(depth->max(),
                   static_cast<double>(result.stats.peak_link_occupancy));
  EXPECT_GE(depth->min(), 1.0);  // a freshly-sent message is in the queue
}

TEST(TelemetryObserver, SpaceHistogramPeaksAtStatsPeak) {
  const auto ring = figure1_ring();
  sim::StepEngine engine(ring, election::BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  TelemetryObserver telemetry;
  engine.add_observer(&telemetry);
  const auto result = engine.run();

  const Histogram* space = telemetry.metrics().find_histogram(
      TelemetryObserver::kSpaceBitsHistogram);
  ASSERT_NE(space, nullptr);
  // Sampling on change sees every value a process ever holds, so the
  // histogram's max is exactly the engines' peak statistic.
  EXPECT_DOUBLE_EQ(space->max(),
                   static_cast<double>(result.stats.peak_space_bits));
  ASSERT_FALSE(telemetry.space_samples().empty());
  // The series starts with one seed sample per process.
  EXPECT_EQ(telemetry.space_samples()[0].pid, 0u);
}

TEST(TelemetryObserver, MessageSpanCapCountsDrops) {
  TelemetryObserver::Config config;
  config.max_message_spans = 8;
  TelemetryObserver telemetry(config);

  const auto ring = figure1_ring();
  sim::StepEngine engine(ring, election::BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  engine.add_observer(&telemetry);
  const auto result = engine.run();

  ASSERT_GT(result.stats.messages_received, 8u);
  EXPECT_EQ(telemetry.message_spans().size(), 8u);
  EXPECT_EQ(telemetry.dropped_message_spans(),
            result.stats.messages_received - 8);
  // Metrics keep counting past the span cap.
  const Histogram* latency = telemetry.metrics().find_histogram(
      TelemetryObserver::kMessageLatencyHistogram);
  EXPECT_EQ(latency->count(), result.stats.messages_received);
}

TEST(TelemetryObserver, MetricsAccumulateSpansRewind) {
  const auto ring = figure1_ring();
  core::ElectionConfig config;
  config.algorithm = {election::AlgorithmId::kBk, 3, false};
  TelemetryObserver telemetry;
  config.extra_observers.push_back(&telemetry);

  const auto first = core::run_election(ring, config);
  const std::uint64_t actions_after_one =
      telemetry.metrics().find_counter("actions")->value;
  const std::size_t spans_after_one = telemetry.phase_spans().size();
  ASSERT_GT(spans_after_one, 0u);

  const auto second = core::run_election(ring, config);
  ASSERT_EQ(second.stats.actions, first.stats.actions);
  // Counters are cumulative across runs (sweep aggregation)...
  EXPECT_EQ(telemetry.metrics().find_counter("actions")->value,
            2 * actions_after_one);
  // ...while spans always describe the latest run only.
  EXPECT_EQ(telemetry.phase_spans().size(), spans_after_one);
}

TEST(TelemetryObserver, AttachesThroughTheDriverOnBothEngines) {
  const auto ring = figure1_ring();
  for (const auto engine_kind :
       {core::EngineKind::kStep, core::EngineKind::kEvent}) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kBk, 3, false};
    config.engine = engine_kind;
    TelemetryObserver telemetry;
    config.extra_observers.push_back(&telemetry);
    const auto result = core::run_election(ring, config);
    ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
    EXPECT_EQ(telemetry.metrics().find_counter("actions")->value,
              result.stats.actions);
    EXPECT_FALSE(telemetry.phase_spans().empty());
    EXPECT_EQ(telemetry.process_count(), ring.size());
  }
}

}  // namespace
}  // namespace hring::telemetry
