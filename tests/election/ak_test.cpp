#include "election/ak.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "core/verification.hpp"
#include "ring/generator.hpp"
#include "words/label.hpp"

namespace hring::election {
namespace {

using core::ElectionConfig;
using core::EngineKind;
using core::SchedulerKind;
using words::make_sequence;

ElectionConfig ak_config(std::size_t k) {
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, k, false};
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

// -- Leader(σ) predicate ---------------------------------------------------

TEST(LeaderPredicateTest, FalseWithoutEnoughCopies) {
  // k=1 needs 3 copies of some label.
  EXPECT_FALSE(leader_predicate(make_sequence({1, 2, 1, 2}), 1));
  EXPECT_FALSE(leader_predicate({}, 1));
  EXPECT_FALSE(leader_predicate(make_sequence({1}), 1));
}

TEST(LeaderPredicateTest, TrueForLyndonSrpWithEnoughCopies) {
  // (1,2)^3 truncated to 5: srp = (1,2), Lyndon, and '1' occurs 3 times.
  EXPECT_TRUE(leader_predicate(make_sequence({1, 2, 1, 2, 1}), 1));
}

TEST(LeaderPredicateTest, FalseWhenSrpNotLyndon) {
  // (2,1)^3: srp = (2,1) is not Lyndon (rotation (1,2) is smaller).
  EXPECT_FALSE(leader_predicate(make_sequence({2, 1, 2, 1, 2}), 1));
}

TEST(LeaderPredicateTest, RespectsK) {
  const auto sigma = make_sequence({1, 2, 1, 2, 1});
  EXPECT_TRUE(leader_predicate(sigma, 1));   // needs 3 copies: has 3 ones
  EXPECT_FALSE(leader_predicate(sigma, 2));  // needs 5 copies
}

TEST(LeaderPredicateTest, AllSameLabelNeverElects) {
  // srp = (1) is Lyndon, so a fully anonymous ring *would* elect everyone —
  // but such a ring is not in A; the predicate itself is honest here.
  EXPECT_TRUE(leader_predicate(make_sequence({1, 1, 1}), 1));
}

// -- fixed small rings -----------------------------------------------------

TEST(AkTest, ElectsTrueLeaderOnRemark122Ring) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto m = core::measure(ring, ak_config(2));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(0));
}

TEST(AkTest, ElectsTrueLeaderOnFigure1Ring) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const auto m = core::measure(ring, ak_config(3));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(0));
}

TEST(AkTest, WorksOnTwoProcessRing) {
  const auto ring = ring::LabeledRing::from_values({2, 1});
  const auto m = core::measure(ring, ak_config(1));
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(1));
}

TEST(AkTest, OverestimatedKStillCorrect) {
  // Ring is in K_1 ⊂ K_5; A_5 must still elect (more slowly).
  const auto ring = ring::LabeledRing::from_values({3, 1, 2});
  const auto m5 = core::measure(ring, ak_config(5));
  EXPECT_TRUE(m5.ok()) << m5.verification.to_string();
  const auto m1 = core::measure(ring, ak_config(1));
  EXPECT_TRUE(m1.ok());
  EXPECT_EQ(m5.result.leader_pid(), m1.result.leader_pid());
  EXPECT_GT(m5.result.stats.messages_sent, m1.result.stats.messages_sent);
}

TEST(AkTest, NonLeadersLearnLabelFromLyndonRotation) {
  const auto ring = ring::LabeledRing::from_values({4, 1, 3});
  const auto m = core::measure(ring, ak_config(1));
  ASSERT_TRUE(m.ok()) << m.verification.to_string();
  const auto leader_pid = m.result.leader_pid();
  ASSERT_TRUE(leader_pid.has_value());
  EXPECT_EQ(ring.label(*leader_pid), words::Label(1));
  for (const auto& p : m.result.processes) {
    EXPECT_EQ(*p.leader, words::Label(1));
  }
}

// -- Theorem 2 bounds ------------------------------------------------------

class AkBoundsSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(AkBoundsSweep, RespectsTheorem2OnWorstCaseDelays) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xA2 + n * 1000 + k);
  const std::size_t alphabet = (n + k - 1) / k + 2;
  const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
  ASSERT_TRUE(ring.has_value());
  ElectionConfig config = ak_config(k);
  config.engine = EngineKind::kEvent;
  config.delay = core::DelayKind::kWorstCase;
  const auto m = core::measure(*ring, config);
  ASSERT_TRUE(m.ok()) << ring->to_string() << "\n"
                      << m.verification.to_string();
  EXPECT_LE(m.result.stats.time_units, core::ak_time_bound(n, k))
      << ring->to_string();
  EXPECT_LE(m.result.stats.messages_sent, core::ak_message_bound(n, k))
      << ring->to_string();
  EXPECT_LE(m.result.stats.peak_space_bits,
            core::ak_space_bound(n, k, ring->label_bits()))
      << ring->to_string();
}

TEST_P(AkBoundsSweep, CorrectUnderSynchronousDaemon) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xA3 + n * 1000 + k);
  const std::size_t alphabet = (n + k - 1) / k + 2;
  const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
  ASSERT_TRUE(ring.has_value());
  ElectionConfig config = ak_config(k);
  config.scheduler = SchedulerKind::kSynchronous;
  const auto m = core::measure(*ring, config);
  EXPECT_TRUE(m.ok()) << ring->to_string() << "\n"
                      << m.verification.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AkBoundsSweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 8, 12, 20),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_k";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

// -- randomized correctness across schedulers ------------------------------

class AkSchedulerSweep
    : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AkSchedulerSweep, ElectsTrueLeaderUnderEveryDaemon) {
  support::Rng rng(0xAA + static_cast<unsigned>(GetParam()));
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 2 + rng.below(12);
    const std::size_t k = 1 + rng.below(3);
    const std::size_t alphabet = (n + k - 1) / k + 2;
    const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config = ak_config(k);
    config.scheduler = GetParam();
    config.seed = rng();
    const auto m = core::measure(*ring, config);
    EXPECT_TRUE(m.ok()) << ring->to_string() << "\n"
                        << m.verification.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Daemons, AkSchedulerSweep,
    ::testing::Values(SchedulerKind::kSynchronous, SchedulerKind::kRoundRobin,
                      SchedulerKind::kRandomSingle,
                      SchedulerKind::kRandomSubset, SchedulerKind::kConvoy),
    [](const auto& pinfo) { return sched_param_name(pinfo.param); });

// -- saturated multiplicity (worst case of the 2k+1 threshold) --------------

TEST(AkTest, SaturatedMultiplicityRings) {
  support::Rng rng(0x5A7);
  for (const std::size_t k : {2u, 3u, 4u}) {
    const std::size_t n = 3 * k + 1;
    const auto ring = ring::saturated_multiplicity_ring(n, k, rng);
    ASSERT_TRUE(ring.has_value());
    const auto m = core::measure(*ring, ak_config(k));
    EXPECT_TRUE(m.ok()) << ring->to_string() << "\n"
                        << m.verification.to_string();
  }
}

TEST(AkTest, LeaderReceiveCountDominates) {
  // Theorem 2's message-complexity proof: each process receives at most
  // as many messages as L, and L receives at most n(2k+1) + 1.
  support::Rng rng(0x1eade5);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t n = 4 + rng.below(12);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    const auto m = core::measure(*ring, ak_config(k));
    ASSERT_TRUE(m.ok()) << ring->to_string();
    const auto leader = m.result.leader_pid();
    ASSERT_TRUE(leader.has_value());
    const auto& received = m.result.stats.received_by_process;
    ASSERT_EQ(received.size(), n);
    for (std::size_t pid = 0; pid < n; ++pid) {
      EXPECT_LE(received[pid], received[*leader])
          << "p" << pid << " on " << ring->to_string();
    }
    EXPECT_LE(received[*leader], n * (2 * k + 1) + 1) << ring->to_string();
  }
}

TEST(AkTest, GrownStringIsPrefixOfLLabels) {
  const auto ring = ring::LabeledRing::from_values({1, 3, 2, 2});
  // Use the step engine directly so the process objects stay inspectable.
  sim::StepEngine engine(ring, AkProcess::factory(2),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  for (sim::ProcessId pid = 0; pid < 4; ++pid) {
    const auto& proc =
        dynamic_cast<const AkProcess&>(engine.process(pid));
    const auto& grown = proc.grown_string();
    const auto expected = ring.llabels(pid, grown.size());
    EXPECT_EQ(grown, expected) << "p" << pid;
  }
}

}  // namespace
}  // namespace hring::election
