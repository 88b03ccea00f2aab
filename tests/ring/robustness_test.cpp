// Contract/robustness coverage for the ring layer: precondition deaths
// and the honest-failure paths of the generators.
#include <gtest/gtest.h>

#include "ring/classes.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"

namespace hring::ring {
namespace {

TEST(RobustnessTest, RingRequiresAtLeastTwoProcesses) {
  EXPECT_DEATH(LabeledRing::from_values({1}), "precondition");
}

TEST(RobustnessTest, LabelAccessorBoundsChecked) {
  const auto ring = LabeledRing::from_values({1, 2});
  EXPECT_DEATH(static_cast<void>(ring.label(2)), "precondition");
  EXPECT_DEATH(static_cast<void>(ring.right(5)), "precondition");
  EXPECT_DEATH(static_cast<void>(ring.left(5)), "precondition");
}

TEST(RobustnessTest, TrueLeaderRefusesSymmetricRings) {
  const auto ring = LabeledRing::from_values({1, 2, 1, 2});
  EXPECT_DEATH(static_cast<void>(ring.true_leader()), "precondition");
}

TEST(RobustnessTest, LLabelsZeroLengthIsEmpty) {
  const auto ring = LabeledRing::from_values({1, 2, 3});
  EXPECT_TRUE(ring.llabels(0, 0).empty());
}

TEST(RobustnessTest, AsymmetricSamplerReportsHopelessFamilies) {
  // A one-letter alphabet can only produce the all-equal (symmetric)
  // ring; the sampler must return nullopt instead of looping forever.
  support::Rng rng(1);
  const auto ring = random_asymmetric_ring(/*n=*/4, /*k=*/4,
                                           /*alphabet=*/1, rng,
                                           /*max_tries=*/50);
  EXPECT_FALSE(ring.has_value());
}

TEST(RobustnessTest, AsymmetricSamplerValidatesArguments) {
  support::Rng rng(1);
  // alphabet * k < n cannot fit the multiset.
  EXPECT_DEATH(static_cast<void>(random_asymmetric_ring(10, 2, 4, rng)),
               "precondition");
}

TEST(RobustnessTest, EnumerationGuardsAgainstExplosion) {
  EXPECT_DEATH(static_cast<void>(enumerate_rings(40, 4, false, false)),
               "precondition");
}

TEST(RobustnessTest, SaturatedSamplerRequiresRoomForAsymmetry) {
  support::Rng rng(1);
  EXPECT_DEATH(static_cast<void>(saturated_multiplicity_ring(3, 3, rng)),
               "precondition");
}

TEST(RobustnessTest, KkPredicateRejectsZeroK) {
  const auto ring = LabeledRing::from_values({1, 2});
  EXPECT_DEATH(static_cast<void>(in_class_Kk(ring, 0)), "precondition");
}

}  // namespace
}  // namespace hring::ring
