// Experiment E2: the impossibility theorem, run as an experiment.
//
// Theorem 1: no algorithm elects for all of U*. The proof (Lemma 1) shows
// any would-be algorithm is fooled by R_{n,k'} — the base ring repeated k'
// times plus one fresh label: processes aligned with the base ring's
// "winner position" cannot distinguish R_{n,k'} from the base ring until
// information from the fresh label reaches them, so several of them elect.
// Here we run A_k (built for multiplicity k) on R_{n,k'} with k' well above
// k and watch the spec monitor catch the multi-leader violation the proof
// predicts. B_k instantiated with too small a k deadlocks or elects wrongly
// rather than electing two leaders — also a failure, also detected.
#include <gtest/gtest.h>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "ring/classes.hpp"
#include "ring/fooling.hpp"
#include "ring/labeled_ring.hpp"

namespace hring {
namespace {

using core::ElectionConfig;
using election::AlgorithmId;

TEST(ImpossibilityTest, AkFooledByLemma1Construction) {
  // Base ring of 4 distinct labels; A_2 knows k=2; the fooling ring
  // repeats the base 7 times (multiplicity 7 > 2) plus label X.
  const auto base = ring::LabeledRing::from_values({2, 4, 1, 3});
  const std::size_t k_algo = 2;
  const std::size_t k_actual = 7;
  const auto fooled = ring::fooling_ring(base, k_actual);
  ASSERT_TRUE(ring::in_class_Ustar(fooled));
  ASSERT_FALSE(ring::in_class_Kk(fooled, k_algo));

  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, k_algo, false};
  config.stop_on_violation = true;
  const auto result = core::run_election(fooled, config);
  EXPECT_EQ(result.outcome, sim::Outcome::kViolation);
  bool multi_leader = false;
  for (const auto& v : result.violations) {
    if (v.find("simultaneous leaders") != std::string::npos) {
      multi_leader = true;
    }
  }
  EXPECT_TRUE(multi_leader) << "expected the proof's multi-leader failure";
}

TEST(ImpossibilityTest, ViolationDisappearsWhenKIsLargeEnough) {
  // The same ring IS electable once the algorithm knows the true bound:
  // R_{n,k'} ∈ U* ∩ K_{k'} ⊆ A ∩ K_{k'}.
  const auto base = ring::LabeledRing::from_values({2, 4, 1, 3});
  const auto fooled = ring::fooling_ring(base, 7);
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 7, false};
  const auto m = core::measure(fooled, config);
  EXPECT_TRUE(m.ok()) << m.verification.to_string();
}

TEST(ImpossibilityTest, EveryUnderestimatedKEventuallyFails) {
  // For each algorithm k, some ring of U* fools it — the quantifier order
  // that makes election for U* impossible. k' = 2k + 3 suffices amply.
  for (const std::size_t k : {1u, 2u, 3u}) {
    const auto base = ring::LabeledRing::from_values({3, 1, 2});
    const auto fooled = ring::fooling_ring(base, 2 * k + 3);
    ElectionConfig config;
    config.algorithm = {AlgorithmId::kAk, k, false};
    config.stop_on_violation = true;
    const auto result = core::run_election(fooled, config);
    EXPECT_EQ(result.outcome, sim::Outcome::kViolation) << "k=" << k;
  }
}

TEST(ImpossibilityTest, BkFailsOutsideItsClassToo) {
  // B_k with k below the true multiplicity must NOT produce a clean
  // correct election on the fooling ring (any failure mode is acceptable:
  // violation, deadlock, wrong leader). It must not silently look correct.
  const auto base = ring::LabeledRing::from_values({2, 4, 1, 3});
  const auto fooled = ring::fooling_ring(base, 7);
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kBk, 2, false};
  config.stop_on_violation = true;
  config.budget = 2'000'000;
  const auto result = core::run_election(fooled, config);
  const auto report =
      core::verify_election(fooled, result, /*check_true_leader=*/true);
  EXPECT_FALSE(report.ok)
      << "B_2 on a multiplicity-7 ring cannot be correct";
}

TEST(ImpossibilityTest, SymmetricRingsAreUnelectableByConstruction) {
  // Outside A entirely: on a rotationally symmetric ring the synchronous
  // runs of A_k/B_k treat symmetric positions identically, so they can
  // never single out one leader; the monitor or the budget must trip.
  const auto ring = ring::LabeledRing::from_values({1, 2, 1, 2, 1, 2});
  for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
    ElectionConfig config;
    config.algorithm = {algo, 3, false};
    config.stop_on_violation = true;
    config.budget = 500'000;
    const auto result = core::run_election(ring, config);
    EXPECT_NE(result.outcome, sim::Outcome::kTerminated)
        << election::algorithm_name(algo);
  }
}

TEST(ImpossibilityTest, ViolationStepIsInsideTheProofWindow) {
  // Lemma 1 quantifies when the fooled processes commit: if the base
  // ring's synchronous election takes T steps with T <= (k'-2)n, the
  // fooled ring replays those T steps verbatim for far-enough processes.
  // The violation must therefore occur within T+1 steps of the fooled
  // run — not later.
  const auto base = ring::LabeledRing::from_values({2, 4, 1, 3});
  const std::size_t k_algo = 2;
  ElectionConfig base_config;
  base_config.algorithm = {AlgorithmId::kAk, k_algo, false};
  const auto base_run = core::run_election(base, base_config);
  ASSERT_EQ(base_run.outcome, sim::Outcome::kTerminated);
  const std::uint64_t T = base_run.stats.steps;

  const auto fooled = ring::fooling_ring(base, 2 * k_algo + 4);
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, k_algo, false};
  config.stop_on_violation = true;
  const auto result = core::run_election(fooled, config);
  ASSERT_EQ(result.outcome, sim::Outcome::kViolation);
  EXPECT_LE(result.stats.steps, T + 1);
}

}  // namespace
}  // namespace hring
