// Tests of the core driver/verifier plumbing itself.
#include <gtest/gtest.h>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "core/verification.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "sim/trace.hpp"

namespace hring {
namespace {

using core::ElectionConfig;
using election::AlgorithmConfig;
using election::AlgorithmId;

TEST(AlgorithmRegistryTest, NamesRoundTrip) {
  for (const auto id : election::all_algorithms()) {
    const auto back = election::algorithm_from_name(election::algorithm_name(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(election::algorithm_from_name("NoSuchAlgo").has_value());
}

TEST(AlgorithmRegistryTest, ClassMembershipRules) {
  const auto homonym = ring::LabeledRing::from_values({1, 2, 2});
  const auto distinct = ring::LabeledRing::from_values({1, 2, 3});
  const auto symmetric = ring::LabeledRing::from_values({1, 2, 1, 2});

  EXPECT_TRUE(election::ring_in_algorithm_class({AlgorithmId::kAk, 2, false},
                                                homonym));
  EXPECT_FALSE(election::ring_in_algorithm_class({AlgorithmId::kAk, 1, false},
                                                 homonym));
  EXPECT_FALSE(election::ring_in_algorithm_class({AlgorithmId::kAk, 4, false},
                                                 symmetric));
  EXPECT_TRUE(election::ring_in_algorithm_class(
      {AlgorithmId::kChangRoberts, 1, false}, distinct));
  EXPECT_FALSE(election::ring_in_algorithm_class(
      {AlgorithmId::kChangRoberts, 1, false}, homonym));
}

TEST(AlgorithmRegistryTest, TrueLeaderFlag) {
  EXPECT_TRUE(election::elects_true_leader(AlgorithmId::kAk));
  EXPECT_TRUE(election::elects_true_leader(AlgorithmId::kBk));
  EXPECT_FALSE(election::elects_true_leader(AlgorithmId::kChangRoberts));
  EXPECT_FALSE(election::elects_true_leader(AlgorithmId::kLeLann));
  EXPECT_FALSE(election::elects_true_leader(AlgorithmId::kPeterson));
}

TEST(DriverTest, ExtraObserversAreWired) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  sim::TraceRecorder trace;
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 2, false};
  config.extra_observers.push_back(&trace);
  const auto result = core::run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_FALSE(trace.entries().empty());
}

TEST(DriverTest, MonitorCanBeDisabled) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 2, false};
  config.monitor_spec = false;
  const auto result = core::run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_TRUE(result.violations.empty());
}

TEST(DriverTest, SpecMonitorAddsNoLabelComparisons) {
  // Stats::label_comparisons counts the algorithm's comparisons alone: the
  // monitor's checks compare raw label values.
  const auto figure1 =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const auto distinct = ring::LabeledRing::from_values({3, 1, 4, 2, 5});
  for (const auto id : election::all_algorithms()) {
    const bool homonyms = election::elects_true_leader(id);
    const auto& ring = homonyms ? figure1 : distinct;
    for (const auto engine :
         {core::EngineKind::kStep, core::EngineKind::kEvent}) {
      ElectionConfig config;
      config.algorithm = {id, homonyms ? 3u : 1u, false};
      config.engine = engine;
      config.monitor_spec = true;
      const auto monitored = core::run_election(ring, config);
      config.monitor_spec = false;
      const auto bare = core::run_election(ring, config);
      const std::string cell =
          std::string(election::algorithm_name(id)) +
          (engine == core::EngineKind::kStep ? " step" : " event");
      ASSERT_EQ(monitored.outcome, sim::Outcome::kTerminated) << cell;
      EXPECT_GT(bare.stats.label_comparisons, 0u) << cell;
      EXPECT_EQ(monitored.stats.label_comparisons,
                bare.stats.label_comparisons)
          << cell;
    }
  }
}

TEST(DriverTest, BudgetExhaustionReported) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kBk, 2, false};
  config.budget = 3;
  const auto result = core::run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kBudgetExhausted);
}

TEST(VerifierTest, AcceptsCleanElection) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 2, false};
  const auto result = core::run_election(ring, config);
  const auto report = core::verify_election(ring, result, true);
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.to_string(), "ok");
}

TEST(VerifierTest, RejectsTruncatedRun) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kBk, 2, false};
  config.budget = 5;
  const auto result = core::run_election(ring, config);
  const auto report = core::verify_election(ring, result, true);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.to_string().find("budget"), std::string::npos);
}

TEST(ExperimentTest, BoundFormulas) {
  EXPECT_DOUBLE_EQ(core::ak_time_bound(10, 2), 60.0);
  EXPECT_EQ(core::ak_message_bound(10, 2), 100u * 5u + 10u);
  EXPECT_EQ(core::ak_space_bound(10, 2, 3), 5u * 10u * 3u + 6u + 3u);
  EXPECT_EQ(core::bk_space_bound(4, 3), 2u * 2u + 9u + 5u);
  EXPECT_EQ(core::bk_space_bound(1, 3), 0u + 9u + 5u);
  EXPECT_EQ(core::bk_phase_bound(10, 2), 30u);
}

TEST(ExperimentTest, MeasureChecksTrueLeaderOnlyForPaperAlgorithms) {
  // Chang-Roberts elects the max label, not the Lyndon process; measure()
  // must not hold baselines to the true-leader rule.
  const auto ring = ring::LabeledRing::from_values({2, 3, 1});
  ASSERT_NE(ring.true_leader(), 1u);  // max label 3 sits at p1
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  const auto m = core::measure(ring, config);
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(1));
}

}  // namespace
}  // namespace hring
