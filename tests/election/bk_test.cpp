#include "election/bk.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"

namespace hring::election {
namespace {

using core::ElectionConfig;
using core::EngineKind;
using core::SchedulerKind;

ElectionConfig bk_config(std::size_t k, bool history = false) {
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kBk, k, history};
  return config;
}

std::string sched_param_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "Synchronous";
    case SchedulerKind::kRoundRobin:
      return "RoundRobin";
    case SchedulerKind::kRandomSingle:
      return "RandomSingle";
    case SchedulerKind::kRandomSubset:
      return "RandomSubset";
    case SchedulerKind::kConvoy:
      return "Convoy";
  }
  return "Unknown";
}

TEST(BkStateNameTest, AllStatesNamed) {
  EXPECT_STREQ(bk_state_name(BkState::kInit), "INIT");
  EXPECT_STREQ(bk_state_name(BkState::kCompute), "COMPUTE");
  EXPECT_STREQ(bk_state_name(BkState::kShift), "SHIFT");
  EXPECT_STREQ(bk_state_name(BkState::kPassive), "PASSIVE");
  EXPECT_STREQ(bk_state_name(BkState::kWin), "WIN");
  EXPECT_STREQ(bk_state_name(BkState::kHalt), "HALT");
}

TEST(BkTest, ElectsTrueLeaderOnRemark122Ring) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto m = core::measure(ring, bk_config(2));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(0));
}

TEST(BkTest, ElectsTrueLeaderOnFigure1Ring) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const auto m = core::measure(ring, bk_config(3));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(0));
}

TEST(BkTest, WorksOnTwoProcessRing) {
  const auto ring = ring::LabeledRing::from_values({7, 4});
  const auto m = core::measure(ring, bk_config(2));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(1));
}

TEST(BkTest, KEqualOneOnDistinctRing) {
  // The paper states B_k for k >= 2; k = 1 degenerates gracefully on K_1.
  const auto ring = ring::LabeledRing::from_values({3, 1, 2});
  const auto m = core::measure(ring, bk_config(1));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
}

TEST(BkTest, OverestimatedKStillCorrect) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 2});
  const auto m5 = core::measure(ring, bk_config(5));
  EXPECT_TRUE(m5.ok()) << m5.verification.to_string();
  const auto m2 = core::measure(ring, bk_config(2));
  EXPECT_TRUE(m2.ok());
  EXPECT_EQ(m5.result.leader_pid(), m2.result.leader_pid());
}

// -- Theorem 4 bounds ------------------------------------------------------

class BkBoundsSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(BkBoundsSweep, RespectsTheorem4Bounds) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xB4 + n * 1000 + k);
  const std::size_t alphabet = (n + k - 1) / k + 2;
  const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
  ASSERT_TRUE(ring.has_value());
  ElectionConfig config = bk_config(k);
  config.engine = EngineKind::kEvent;
  config.delay = core::DelayKind::kWorstCase;
  const auto m = core::measure(*ring, config);
  ASSERT_TRUE(m.ok()) << ring->to_string() << "\n"
                      << m.verification.to_string();
  // Space is an exact formula in Theorem 4.
  EXPECT_LE(m.result.stats.peak_space_bits,
            core::bk_space_bound(k, ring->label_bits()))
      << ring->to_string();
  // Time/messages are O(k^2 n^2); check against the explicit constants the
  // proof develops: X <= (k+1)n phases of <= (k+1)n time each.
  const double phase_bound = static_cast<double>(core::bk_phase_bound(n, k));
  EXPECT_LE(m.result.stats.time_units, phase_bound * phase_bound)
      << ring->to_string();
}

TEST_P(BkBoundsSweep, CorrectUnderSynchronousDaemon) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xB5 + n * 1000 + k);
  const std::size_t alphabet = (n + k - 1) / k + 2;
  const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
  ASSERT_TRUE(ring.has_value());
  const auto m = core::measure(*ring, bk_config(k));
  EXPECT_TRUE(m.ok()) << ring->to_string() << "\n"
                      << m.verification.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BkBoundsSweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 8, 12),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_k";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

// -- scheduler sweep --------------------------------------------------------

class BkSchedulerSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(BkSchedulerSweep, ElectsTrueLeaderUnderEveryDaemon) {
  support::Rng rng(0xBB + static_cast<unsigned>(GetParam()));
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 2 + rng.below(10);
    const std::size_t k = 1 + rng.below(3);
    const std::size_t alphabet = (n + k - 1) / k + 2;
    const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config = bk_config(k);
    config.scheduler = GetParam();
    config.seed = rng();
    const auto m = core::measure(*ring, config);
    EXPECT_TRUE(m.ok()) << ring->to_string() << "\n"
                        << m.verification.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Daemons, BkSchedulerSweep,
    ::testing::Values(SchedulerKind::kSynchronous, SchedulerKind::kRoundRobin,
                      SchedulerKind::kRandomSingle,
                      SchedulerKind::kRandomSubset, SchedulerKind::kConvoy),
    [](const auto& pinfo) { return sched_param_name(pinfo.param); });

// -- internal counters ------------------------------------------------------

TEST(BkTest, InnerAndOuterNeverExceedK) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const std::size_t k = 3;
  sim::StepEngine engine(ring, BkProcess::factory(k),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  for (sim::ProcessId pid = 0; pid < ring.size(); ++pid) {
    const auto& proc = dynamic_cast<const BkProcess&>(engine.process(pid));
    EXPECT_LE(proc.inner(), k);
    EXPECT_LE(proc.outer(), k);
  }
}

TEST(BkTest, PhaseCountMatchesXFormula) {
  // X = min{x : LLabels(L)^x contains L.id (k+1) times}. For the Figure 1
  // ring with k=3: LLabels(p0) = 1,2,1,2,2,3,1,3 | 1,… -> the 4th '1' is
  // at position 9, so the leader's final phase is 9.
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(ring, BkProcess::factory(3, true),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  const auto& leader = dynamic_cast<const BkProcess&>(engine.process(0));
  EXPECT_TRUE(leader.is_leader());
  EXPECT_EQ(leader.phase(), 9u);
  EXPECT_LE(leader.phase(), core::bk_phase_bound(ring.size(), 3));
}

TEST(BkTest, SpaceIsIndependentOfN) {
  // The whole point of B_k: space stays flat as the ring grows.
  support::Rng rng(0x5ACE);
  const std::size_t k = 2;
  std::size_t prev_bits = 0;
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    const auto m = core::measure(*ring, bk_config(k));
    ASSERT_TRUE(m.ok());
    const std::size_t bits = m.result.stats.peak_space_bits;
    if (prev_bits != 0) {
      // Only label width b may move the footprint; with the same alphabet
      // bound the footprint is constant.
      EXPECT_LE(bits, prev_bits + 8);
    }
    prev_bits = bits;
  }
}

}  // namespace
}  // namespace hring::election
