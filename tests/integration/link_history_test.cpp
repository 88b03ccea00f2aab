// Per-link message histories do not depend on the schedule.
//
// Every guard of the five algorithms except the init action waits on the
// in-link head, and only the process's own firing pops it. Under §II's
// reliable FIFO links each process therefore receives the same messages
// in the same order under every fair schedule: the ring is a Kahn
// network. The in-host conformance check (runtime/conformance.hpp) rests
// on this property: it compares a threaded run's link histories with
// those of one synchronous reference run. These tests establish it for
// the step engine's daemons and the event engine's delay models, through
// the same projection (sim::link_histories).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/election_driver.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace hring::core {
namespace {

using election::AlgorithmConfig;
using election::AlgorithmId;
using Histories = std::vector<std::vector<sim::Message>>;

std::string describe(const ring::LabeledRing& ring,
                     const AlgorithmConfig& algorithm,
                     const ElectionConfig& config) {
  std::string out = std::string(election::algorithm_name(algorithm.id)) +
                    " k=" + std::to_string(algorithm.k) + " on " +
                    ring.to_string() + ", ";
  out += config.engine == EngineKind::kStep
             ? std::string(scheduler_kind_name(config.scheduler)) + " daemon"
             : std::string(delay_kind_name(config.delay)) + " delays";
  return out + ", seed " + std::to_string(config.seed);
}

Histories histories_of(const ring::LabeledRing& ring, ElectionConfig config) {
  sim::TraceRecorder trace;
  config.extra_observers.push_back(&trace);
  const sim::RunResult result = run_election(ring, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated)
      << describe(ring, config.algorithm, config);
  EXPECT_EQ(trace.dropped(), 0u);
  return sim::link_histories(trace, ring.size());
}

/// Compares every daemon and delay model, three seeds each, against the
/// synchronous run's histories.
void expect_schedule_independent(const ring::LabeledRing& ring,
                                 const AlgorithmConfig& algorithm) {
  ElectionConfig config;
  config.algorithm = algorithm;
  const Histories reference = histories_of(ring, config);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    config.seed = seed;
    config.engine = EngineKind::kStep;
    for (const SchedulerKind daemon :
         {SchedulerKind::kRoundRobin, SchedulerKind::kRandomSingle,
          SchedulerKind::kRandomSubset, SchedulerKind::kConvoy}) {
      config.scheduler = daemon;
      EXPECT_TRUE(histories_of(ring, config) == reference)
          << describe(ring, algorithm, config);
    }
    config.engine = EngineKind::kEvent;
    for (const DelayKind delay :
         {DelayKind::kWorstCase, DelayKind::kUniformRandom,
          DelayKind::kSlowLink}) {
      config.delay = delay;
      EXPECT_TRUE(histories_of(ring, config) == reference)
          << describe(ring, algorithm, config);
    }
  }
}

TEST(LinkHistoryDeterminacyTest, PaperAlgorithmsOnAsymmetricRings) {
  support::Rng rng(0xD37);
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::size_t k = 1; k <= 3; ++k) {
      const std::size_t alphabet =
          std::max<std::size_t>(3, (n + k - 1) / k + 1);
      const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
      ASSERT_TRUE(ring.has_value()) << "n=" << n << " k=" << k;
      for (const AlgorithmId id : {AlgorithmId::kAk, AlgorithmId::kBk}) {
        expect_schedule_independent(*ring, AlgorithmConfig{id, k, false});
      }
    }
  }
}

TEST(LinkHistoryDeterminacyTest, BaselinesOnDistinctRings) {
  support::Rng rng(0xD38);
  for (std::size_t n = 2; n <= 8; ++n) {
    const auto ring = ring::distinct_ring(n, rng);
    for (const AlgorithmId id : {AlgorithmId::kChangRoberts,
                                 AlgorithmId::kLeLann,
                                 AlgorithmId::kPeterson}) {
      expect_schedule_independent(ring, AlgorithmConfig{id, 1, false});
    }
  }
}

}  // namespace
}  // namespace hring::core
