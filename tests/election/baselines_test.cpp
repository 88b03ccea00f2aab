#include <gtest/gtest.h>

#include <tuple>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "sim/trace.hpp"

namespace hring::election {
namespace {

using core::ElectionConfig;
using core::SchedulerKind;

ElectionConfig config_for(AlgorithmId id) {
  ElectionConfig config;
  config.algorithm = {id, 1, false};
  return config;
}

class BaselineSweep
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, std::size_t>> {
};

TEST_P(BaselineSweep, ElectsUniqueLeaderOnDistinctRings) {
  const auto [algo, n] = GetParam();
  support::Rng rng(0xBA5E + n * 17 + static_cast<unsigned>(algo));
  for (int rep = 0; rep < 10; ++rep) {
    const auto ring = ring::distinct_ring(n, rng);
    auto config = config_for(algo);
    config.seed = rng();
    const auto m = core::measure(ring, config);
    EXPECT_TRUE(m.ok()) << algorithm_name(algo) << " on "
                        << ring.to_string() << "\n"
                        << m.verification.to_string();
  }
}

TEST_P(BaselineSweep, ElectsUnderAsynchronousDaemons) {
  const auto [algo, n] = GetParam();
  support::Rng rng(0xBA5F + n * 17 + static_cast<unsigned>(algo));
  for (const auto sched :
       {SchedulerKind::kRoundRobin, SchedulerKind::kRandomSingle,
        SchedulerKind::kConvoy}) {
    const auto ring = ring::distinct_ring(n, rng);
    auto config = config_for(algo);
    config.scheduler = sched;
    config.seed = rng();
    const auto m = core::measure(ring, config);
    EXPECT_TRUE(m.ok()) << algorithm_name(algo) << " under "
                        << core::scheduler_kind_name(sched) << " on "
                        << ring.to_string() << "\n"
                        << m.verification.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSweep,
    ::testing::Combine(::testing::Values(AlgorithmId::kChangRoberts,
                                         AlgorithmId::kLeLann,
                                         AlgorithmId::kPeterson),
                       ::testing::Values<std::size_t>(2, 3, 4, 7, 12, 25)),
    [](const auto& pinfo) {
      return std::string(algorithm_name(std::get<0>(pinfo.param))) + "_n" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ChangRobertsTest, ElectsMaximumLabel) {
  const auto ring = ring::LabeledRing::from_values({3, 9, 1, 5});
  const auto m = core::measure(ring, config_for(AlgorithmId::kChangRoberts));
  ASSERT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(1));
}

TEST(LeLannTest, ElectsMaximumLabel) {
  const auto ring = ring::LabeledRing::from_values({3, 9, 1, 5});
  const auto m = core::measure(ring, config_for(AlgorithmId::kLeLann));
  ASSERT_TRUE(m.ok()) << m.verification.to_string();
  EXPECT_EQ(m.result.leader_pid(), std::optional<sim::ProcessId>(1));
}

TEST(LeLannTest, MessageCountIsExactlyNSquaredPlusN) {
  // n tokens each travel the full ring (n hops) + the announcement (n).
  for (const std::size_t n : {2u, 5u, 9u}) {
    support::Rng rng(n);
    const auto ring = ring::distinct_ring(n, rng);
    const auto m = core::measure(ring, config_for(AlgorithmId::kLeLann));
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.result.stats.messages_sent, n * n + n) << "n=" << n;
  }
}

TEST(ChangRobertsTest, WorstCaseMessagesOnDescendingRing) {
  // Labels in clockwise ascending order n,…,2,1 are CR's worst case:
  // candidate i travels i hops -> n(n+1)/2 candidates + n announcements.
  const auto ring = ring::LabeledRing::from_values({5, 4, 3, 2, 1});
  const auto m = core::measure(ring, config_for(AlgorithmId::kChangRoberts));
  ASSERT_TRUE(m.ok());
  const std::uint64_t n = 5;
  EXPECT_EQ(m.result.stats.messages_sent, n * (n + 1) / 2 + n);
}

TEST(PetersonTest, MessageCountIsWithinNLogNBound) {
  support::Rng rng(0x9e7e);
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto ring = ring::distinct_ring(n, rng);
    const auto m = core::measure(ring, config_for(AlgorithmId::kPeterson));
    ASSERT_TRUE(m.ok());
    // Peterson's bound: at most 2n per phase, ~log2(n)+2 phases, plus the
    // announcement ring pass.
    double log2n = 0;
    while ((1u << static_cast<unsigned>(log2n)) < n) ++log2n;
    const double bound = 2.0 * static_cast<double>(n) * (log2n + 2.0) +
                         static_cast<double>(n);
    EXPECT_LE(static_cast<double>(m.result.stats.messages_sent), bound)
        << "n=" << n;
  }
}

TEST(PetersonTest, ActiveSetAtLeastHalvesEachPhase) {
  // The halving argument behind O(n log n): count P-demote vs P-survive
  // actions — survivors per phase never exceed half the phase's actives.
  // Aggregate check: with n initial actives and only one final active,
  // total survivals = sum over phases of survivors <= n - 1, and the
  // number of phases observed is <= log2(n) + 1.
  support::Rng rng(0x9e7f);
  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto ring = ring::distinct_ring(n, rng);
    sim::StepEngine engine(
        ring, election::make_factory({AlgorithmId::kPeterson, 1, false}),
        sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
    sim::TraceRecorder trace;
    engine.add_observer(&trace);
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
    std::uint64_t survives = 0;
    std::uint64_t demotes = 0;
    for (const auto& [action, count] : trace.action_census()) {
      if (action == "P-survive") survives = count;
      if (action == "P-demote") demotes = count;
    }
    // Every phase transition is a survive or a demote; actives go from n
    // to 1, so demotes == n - 1 and survives < n (halving keeps the sum
    // geometric: at most n - 1 total survivals).
    EXPECT_EQ(demotes, n - 1) << "n=" << n;
    EXPECT_LE(survives, n - 1) << "n=" << n;
  }
}

TEST(BaselinesTest, ChangRobertsMisbehavesWithHomonyms) {
  // Two processes share the maximum label: both see "their" candidate
  // return and both elect — exactly the failure homonyms cause and the
  // paper's algorithms avoid. The spec monitor must catch it.
  const auto ring = ring::LabeledRing::from_values({7, 3, 7, 3});
  auto config = config_for(AlgorithmId::kChangRoberts);
  config.stop_on_violation = true;
  const auto result = core::run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kViolation);
  EXPECT_FALSE(result.violations.empty());
}

TEST(BaselinesTest, AkHandlesTheHomonymRingBaselinesCannot) {
  const auto ring = ring::LabeledRing::from_values({7, 3, 7, 4});
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 2, false};
  const auto m = core::measure(ring, config);
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
}

}  // namespace
}  // namespace hring::election
