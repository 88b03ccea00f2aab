// Experiment E5: reproduce Figure 1 of the paper — the first four phases of
// B_3 on the 8-process ring labeled (1,3,1,3,2,2,1,2), with p0 elected.
//
// The figure shows, for each phase, every process's guest value (the gray
// label) and whether it is active (white) or passive (black) at the
// beginning of the phase.
#include <gtest/gtest.h>

#include <array>

#include "core/election_driver.hpp"
#include "election/bk.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"

namespace hring::election {
namespace {

struct Figure1Expectation {
  std::array<std::uint64_t, 8> guests;
  std::array<bool, 8> active;
};

// Transcribed from Figure 1 (a)-(d).
const Figure1Expectation kFigure1[4] = {
    // (a) 1st phase: guests are the own labels; everyone active.
    {{1, 3, 1, 3, 2, 2, 1, 2},
     {true, true, true, true, true, true, true, true}},
    // (b) 2nd phase: guests shifted one step clockwise; active processes
    // are those whose first label equals the minimum (label 1): p0,p2,p6.
    {{2, 1, 3, 1, 3, 2, 2, 1},
     {true, false, true, false, false, false, true, false}},
    // (c) 3rd phase: guests shifted again; p2 dropped in phase 2
    // (LLabels(p2)[2] = 3 > 2), p0 and p6 remain.
    {{1, 2, 1, 3, 1, 3, 2, 2},
     {true, false, false, false, false, false, true, false}},
    // (d) 4th phase: only p0 remains active.
    {{2, 1, 2, 1, 3, 1, 3, 2},
     {true, false, false, false, false, false, false, false}},
};

TEST(BkFigure1Test, ReproducesAllFourPanels) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(ring, BkProcess::factory(3, /*history=*/true),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);

  for (sim::ProcessId pid = 0; pid < 8; ++pid) {
    const auto& proc = dynamic_cast<const BkProcess&>(engine.process(pid));
    const auto& history = proc.history();
    ASSERT_GE(history.size(), 4u) << "p" << pid;
    for (std::size_t phase = 0; phase < 4; ++phase) {
      const auto& record = history[phase];
      EXPECT_EQ(record.phase, phase + 1) << "p" << pid;
      EXPECT_EQ(record.guest.value(), kFigure1[phase].guests[pid])
          << "p" << pid << " phase " << phase + 1;
      EXPECT_EQ(record.active, kFigure1[phase].active[pid])
          << "p" << pid << " phase " << phase + 1;
    }
  }
}

TEST(BkFigure1Test, GuestsEqualLLabelsAtEveryPhase) {
  // HI condition 1 (Lemma 8): p.guest = LLabels(p)[i] in phase i.
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(ring, BkProcess::factory(3, /*history=*/true),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
  for (sim::ProcessId pid = 0; pid < 8; ++pid) {
    const auto& proc = dynamic_cast<const BkProcess&>(engine.process(pid));
    const auto llabels = ring.llabels(pid, proc.history().size());
    for (const auto& record : proc.history()) {
      EXPECT_EQ(record.guest, llabels[record.phase - 1])
          << "p" << pid << " phase " << record.phase;
    }
  }
}

TEST(BkFigure1Test, P0IsElectedAndEveryoneAgrees) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  core::ElectionConfig config;
  config.algorithm = {AlgorithmId::kBk, 3, false};
  const auto result = core::run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(), std::optional<sim::ProcessId>(0));
  for (const auto& p : result.processes) {
    ASSERT_TRUE(p.leader.has_value());
    EXPECT_EQ(p.leader->value(), 1u);
  }
}

TEST(BkFigure1Test, ActiveSetsShrinkMonotonically) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(ring, BkProcess::factory(3, /*history=*/true),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
  // Collect per-phase active counts across processes.
  std::vector<std::size_t> active_count;
  for (sim::ProcessId pid = 0; pid < 8; ++pid) {
    const auto& proc = dynamic_cast<const BkProcess&>(engine.process(pid));
    for (const auto& record : proc.history()) {
      if (active_count.size() < record.phase) {
        active_count.resize(record.phase, 0);
      }
      if (record.active) ++active_count[record.phase - 1];
    }
  }
  for (std::size_t i = 1; i < active_count.size(); ++i) {
    EXPECT_LE(active_count[i], active_count[i - 1]) << "phase " << i + 1;
  }
  EXPECT_EQ(active_count.front(), 8u);
  EXPECT_EQ(active_count.back(), 1u);
}

}  // namespace
}  // namespace hring::election
