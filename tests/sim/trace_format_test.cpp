#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "support/json.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

using testing::TrivialElectProcess;

TEST(TraceFormatTest, PrintShowsActionsAndMessages) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  TraceRecorder trace;
  engine.add_observer(&trace);
  ASSERT_EQ(engine.run().outcome, Outcome::kTerminated);
  std::ostringstream out;
  trace.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("p0 init"), std::string::npos);
  EXPECT_NE(text.find("rcv <FINISH_LABEL,1>"), std::string::npos);
  EXPECT_NE(text.find("[step 0"), std::string::npos);
  EXPECT_EQ(text.find("dropped"), std::string::npos);
}

// Golden rendering: the synchronous TrivialElect run on (1,2,3) is fully
// deterministic, so the trace text is an exact artifact. Any formatting
// change to TraceRecorder::print must update this expectation knowingly.
TEST(TraceFormatTest, PrintGoldenOutput) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  TraceRecorder trace;
  engine.add_observer(&trace);
  ASSERT_EQ(engine.run().outcome, Outcome::kTerminated);
  std::ostringstream out;
  trace.print(out);
  EXPECT_EQ(out.str(),
            "[step 0 t=0] p0 init -> RUN\n"
            "[step 0 t=0] p1 init -> RUN\n"
            "[step 0 t=0] p2 init -> RUN\n"
            "[step 1 t=1] p1 learn rcv <FINISH_LABEL,1> -> RUN\n"
            "[step 2 t=2] p2 learn rcv <FINISH_LABEL,1> -> RUN\n"
            "[step 3 t=3] p0 halt rcv <FINISH_LABEL,1> -> RUN\n");
}

TEST(TraceFormatTest, BoundedRecorderCountsDrops) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  TraceRecorder trace(/*max_entries=*/2);
  engine.add_observer(&trace);
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, Outcome::kTerminated);
  EXPECT_EQ(trace.entries().size(), 2u);
  // Every action past the cap is dropped — exactly, not approximately.
  EXPECT_EQ(trace.dropped(), result.stats.actions - 2);
  std::ostringstream out;
  trace.print(out);
  EXPECT_NE(out.str().find("(4 actions dropped)"), std::string::npos);
}

TEST(TraceFormatTest, EntriesCarrySentMessages) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  TraceRecorder trace;
  engine.add_observer(&trace);
  ASSERT_EQ(engine.run().outcome, Outcome::kTerminated);
  // p0's init sends exactly the announcement.
  const auto& first = trace.entries().front();
  EXPECT_EQ(first.event.pid, 0u);
  ASSERT_EQ(first.event.sent.size(), 1u);
  EXPECT_EQ(first.event.sent[0].kind, MsgKind::kFinishLabel);
}

TEST(StatsSummaryTest, MentionsCoreCounters) {
  Stats stats;
  stats.steps = 7;
  stats.messages_sent = 12;
  stats.peak_space_bits = 33;
  const std::string summary = stats.summary();
  EXPECT_NE(summary.find("steps=7"), std::string::npos);
  EXPECT_NE(summary.find("sent=12"), std::string::npos);
  EXPECT_NE(summary.find("peak_space_bits=33"), std::string::npos);
}

// Stats::to_json is the single serialization the run report, the sweep
// rows and the telemetry documents all share.
TEST(StatsJsonTest, EmitsEveryCounter) {
  Stats stats;
  stats.reset(2);
  stats.steps = 7;
  stats.actions = 9;
  stats.time_units = 3.5;
  stats.messages_sent = 12;
  stats.messages_received = 11;
  stats.sent_by_process = {8, 4};
  stats.received_by_process = {6, 5};
  stats.sent_by_kind[kind_index(MsgKind::kToken)] = 12;
  stats.message_bits_sent = 96;
  stats.peak_space_bits = 33;
  stats.peak_link_occupancy = 2;
  stats.label_comparisons = 40;

  std::ostringstream out;
  {
    support::JsonWriter json(out);
    stats.to_json(json);
  }
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"steps\":7"), std::string::npos);
  EXPECT_NE(doc.find("\"actions\":9"), std::string::npos);
  EXPECT_NE(doc.find("\"messages_sent\":12"), std::string::npos);
  EXPECT_NE(doc.find("\"peak_space_bits\":33"), std::string::npos);
  EXPECT_NE(doc.find("\"label_comparisons\":40"), std::string::npos);
  // Zero-suppressed kind map: only TOKEN appears.
  EXPECT_NE(doc.find("\"TOKEN\":12"), std::string::npos);
  EXPECT_EQ(doc.find("\"PHASE_SHIFT\""), std::string::npos);
  EXPECT_NE(doc.find("\"sent_by_process\":[8,4]"), std::string::npos);
  EXPECT_NE(doc.find("\"received_by_process\":[6,5]"), std::string::npos);
}

}  // namespace
}  // namespace hring::sim
