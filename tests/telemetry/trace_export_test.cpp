// Figure 1 integration: the telemetry phase timeline of B_3 on the
// 8-process ring (1,3,1,3,2,2,1,2) must reproduce the figure's guest and
// active/passive schedule — cross-checked both against the hard-coded
// table the paper prints (phases 1–4) and against BkProcess's own phase
// history for the full run. The exported Chrome trace-event JSON is then
// checked for the structures Perfetto keys on.
#include "telemetry/trace_export.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "election/bk.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry_observer.hpp"

namespace hring::telemetry {
namespace {

struct Figure1Run {
  sim::RunResult result;
  TelemetryObserver telemetry;
  std::vector<std::vector<election::BkProcess::PhaseRecord>> histories;
};

std::unique_ptr<Figure1Run> run_figure1() {
  auto run = std::make_unique<Figure1Run>();
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(
      ring, election::BkProcess::factory(3, /*record_history=*/true),
      sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  engine.add_observer(&run->telemetry);
  run->result = engine.run();
  for (sim::ProcessId pid = 0; pid < ring.size(); ++pid) {
    const auto& proc =
        dynamic_cast<const election::BkProcess&>(engine.process(pid));
    run->histories.push_back(proc.history());
  }
  return run;
}

/// Spans of one process keyed by phase number.
std::map<std::size_t, PhaseSpan> spans_of(const TelemetryObserver& telemetry,
                                          sim::ProcessId pid) {
  std::map<std::size_t, PhaseSpan> by_phase;
  for (const PhaseSpan& span : telemetry.phase_spans()) {
    if (span.pid != pid) continue;
    EXPECT_EQ(by_phase.count(span.phase), 0u)
        << "duplicate phase " << span.phase << " for p" << pid;
    by_phase[span.phase] = span;
  }
  return by_phase;
}

TEST(TraceExport, Figure1PhaseSpansMatchThePaperTable) {
  const auto run = run_figure1();
  ASSERT_EQ(run->result.outcome, sim::Outcome::kTerminated);
  ASSERT_EQ(run->result.leader_pid(), std::optional<sim::ProcessId>{0});

  // Figure 1's first four phases: guest label per process, '*' = active
  // (white node) at the beginning of the phase.
  struct Expected {
    std::uint64_t guest;
    bool active;
  };
  const std::vector<std::vector<Expected>> figure = {
      {{1, true}, {3, true}, {1, true}, {3, true},
       {2, true}, {2, true}, {1, true}, {2, true}},   // phase 1
      {{2, true}, {1, false}, {3, true}, {1, false},
       {3, false}, {2, false}, {2, true}, {1, false}},  // phase 2
      {{1, true}, {2, false}, {1, false}, {3, false},
       {1, false}, {3, false}, {2, true}, {2, false}},  // phase 3
      {{2, true}, {1, false}, {2, false}, {1, false},
       {3, false}, {1, false}, {3, false}, {2, false}},  // phase 4
  };

  for (sim::ProcessId pid = 0; pid < 8; ++pid) {
    const auto by_phase = spans_of(run->telemetry, pid);
    for (std::size_t phase = 1; phase <= figure.size(); ++phase) {
      ASSERT_TRUE(by_phase.contains(phase))
          << "p" << pid << " has no phase-" << phase << " span";
      const PhaseSpan& span = by_phase.at(phase);
      EXPECT_EQ(span.guest, figure[phase - 1][pid].guest)
          << "p" << pid << " phase " << phase;
      EXPECT_EQ(span.active, figure[phase - 1][pid].active)
          << "p" << pid << " phase " << phase;
    }
  }
}

TEST(TraceExport, Figure1PhaseSpansMatchBkHistoryExactly) {
  const auto run = run_figure1();

  for (sim::ProcessId pid = 0; pid < run->histories.size(); ++pid) {
    const auto& history = run->histories[pid];
    const auto by_phase = spans_of(run->telemetry, pid);
    ASSERT_EQ(by_phase.size(), history.size()) << "p" << pid;
    for (const auto& rec : history) {
      ASSERT_TRUE(by_phase.contains(rec.phase)) << "p" << pid;
      const PhaseSpan& span = by_phase.at(rec.phase);
      EXPECT_EQ(span.guest, rec.guest.value()) << "p" << pid << " phase "
                                               << rec.phase;
      EXPECT_EQ(span.active, rec.active) << "p" << pid << " phase "
                                         << rec.phase;
    }
  }

  // p0 wins in phase 9 — its last span is the win phase, open at halt.
  const auto p0 = spans_of(run->telemetry, 0);
  ASSERT_TRUE(p0.contains(9));
  EXPECT_TRUE(p0.at(9).active);
  EXPECT_EQ(p0.at(9).guest, 1u);  // own label

  // Spans are contiguous per process: phase i ends when i+1 begins.
  for (sim::ProcessId pid = 0; pid < 8; ++pid) {
    const auto by_phase = spans_of(run->telemetry, pid);
    for (std::size_t phase = 1; phase + 1 <= by_phase.size(); ++phase) {
      EXPECT_DOUBLE_EQ(by_phase.at(phase).end_time,
                       by_phase.at(phase + 1).begin_time)
          << "p" << pid << " phase " << phase;
      EXPECT_TRUE(by_phase.at(phase).closed);
    }
  }
}

TEST(TraceExport, TraceJsonCarriesTheTimelineStructures) {
  const auto run = run_figure1();
  std::ostringstream out;
  write_trace_json(out, run->telemetry);
  const std::string doc = out.str();

  // Chrome trace-event scaffolding.
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Track metadata for both groups.
  EXPECT_NE(doc.find("\"processes\""), std::string::npos);
  EXPECT_NE(doc.find("\"links\""), std::string::npos);
  EXPECT_NE(doc.find("p0 (label 1)"), std::string::npos);
  EXPECT_NE(doc.find("link p7 -> p0"), std::string::npos);
  // Phase spans, markers and counter tracks.
  EXPECT_NE(doc.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(doc.find("phase 1 g=1*"), std::string::npos);
  EXPECT_NE(doc.find("\"deactivate\""), std::string::npos);
  EXPECT_NE(doc.find("\"phase barrier\""), std::string::npos);
  EXPECT_NE(doc.find("\"active processes\""), std::string::npos);
  EXPECT_NE(doc.find("space_bits p0"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"message\""), std::string::npos);
}

TEST(TraceExport, MetricsJsonIsSelfContained) {
  const auto run = run_figure1();
  std::ostringstream out;
  write_metrics_json(out, run->telemetry.metrics());
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"action.B1\":8"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"message_latency_time_units\""), std::string::npos);
}

}  // namespace
}  // namespace hring::telemetry
