#include "ring/labeled_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "ring/generator.hpp"
#include "support/rng.hpp"
#include "words/label.hpp"

namespace hring::ring {
namespace {

using words::make_sequence;

TEST(LabeledRingTest, SizeAndLabels) {
  const auto ring = LabeledRing::from_values({1, 3, 1, 2});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.label(0), Label(1));
  EXPECT_EQ(ring.label(1), Label(3));
  EXPECT_EQ(ring.label(3), Label(2));
}

TEST(LabeledRingTest, NeighborsWrapAround) {
  const auto ring = LabeledRing::from_values({1, 2, 3});
  EXPECT_EQ(ring.right(0), 1u);
  EXPECT_EQ(ring.right(2), 0u);
  EXPECT_EQ(ring.left(0), 2u);
  EXPECT_EQ(ring.left(1), 0u);
}

TEST(LabeledRingTest, Multiplicity) {
  const auto ring = LabeledRing::from_values({1, 2, 2, 3, 2});
  EXPECT_EQ(ring.multiplicity(Label(2)), 3u);
  EXPECT_EQ(ring.multiplicity(Label(1)), 1u);
  EXPECT_EQ(ring.multiplicity(Label(9)), 0u);
  EXPECT_EQ(ring.max_multiplicity(), 3u);
  EXPECT_EQ(ring.distinct_labels(), 3u);
}

TEST(LabeledRingTest, MultiplicitiesMatchAMapCount) {
  support::Rng rng(0x3a11);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + rng.below(999);
    const auto ring = uniform_random_ring(n, 1 + rng.below(n + 4), rng);
    std::map<Label::rep_type, std::size_t> counts;
    std::size_t max_count = 0;
    for (const Label l : ring.labels()) {
      max_count = std::max(max_count, ++counts[l.value()]);
    }
    EXPECT_EQ(ring.max_multiplicity(), max_count) << "n=" << n;
    EXPECT_EQ(ring.distinct_labels(), counts.size()) << "n=" << n;
    std::vector<std::pair<Label, std::size_t>> expected;
    for (const auto& [value, count] : counts) {
      EXPECT_EQ(ring.multiplicity(Label(value)), count) << "label " << value;
      expected.emplace_back(Label(value), count);
    }
    EXPECT_EQ(ring.label_counts(), expected) << "n=" << n;
    EXPECT_EQ(ring.multiplicity(Label(0)), 0u);  // labels start at 1
  }
}

TEST(LabeledRingTest, LLabelsGoesCounterClockwise) {
  // LLabels(p_i) = p_i.id, p_{i-1}.id, p_{i-2}.id, …
  const auto ring = LabeledRing::from_values({10, 20, 30, 40});
  EXPECT_EQ(ring.llabels(0, 4), make_sequence({10, 40, 30, 20}));
  EXPECT_EQ(ring.llabels(2, 4), make_sequence({30, 20, 10, 40}));
}

TEST(LabeledRingTest, LLabelsWrapsBeyondN) {
  const auto ring = LabeledRing::from_values({1, 2, 3});
  EXPECT_EQ(ring.llabels(0, 7), make_sequence({1, 3, 2, 1, 3, 2, 1}));
}

TEST(LabeledRingTest, PaperExampleLLabels) {
  // §IV example: p0.id = p1.id = A(=1), p2.id = B(=2);
  // LLabels(p0) = A B A A B A …
  const auto ring = LabeledRing::from_values({1, 1, 2});
  EXPECT_EQ(ring.llabels(0, 6), make_sequence({1, 2, 1, 1, 2, 1}));
}

TEST(LabeledRingTest, LabelBits) {
  EXPECT_EQ(LabeledRing::from_values({1, 2, 3}).label_bits(), 2u);
  EXPECT_EQ(LabeledRing::from_values({1, 300}).label_bits(), 9u);
}

TEST(TrueLeaderTest, Figure1RingElectsP0) {
  // Figure 1: labels (1,3,1,3,2,2,1,2) with k=3; p0 is elected.
  const auto ring = LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  EXPECT_EQ(ring.true_leader(), 0u);
  EXPECT_EQ(ring.true_leader_naive(), 0u);
}

TEST(TrueLeaderTest, Remark122Ring) {
  // §I remark ring (1,2,2): LLabels(p0)=1,2,2 is the Lyndon rotation.
  const auto ring = LabeledRing::from_values({1, 2, 2});
  EXPECT_EQ(ring.true_leader(), 0u);
}

TEST(TrueLeaderTest, DistinctRingLeaderHoldsLyndonSequence) {
  const auto ring = LabeledRing::from_values({4, 2, 7, 1, 5});
  const ProcessIndex leader = ring.true_leader();
  // LLabels(leader)^n must be lexicographically minimal among processes.
  const auto expected = ring.true_leader_naive();
  EXPECT_EQ(leader, expected);
  // The minimal sequence starts with the minimal label when it is unique.
  EXPECT_EQ(ring.label(leader), Label(1));
}

TEST(TrueLeaderTest, BoothMatchesNaiveOnRandomAsymmetricRings) {
  support::Rng rng(0xabcdef);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + rng.below(30);
    const std::size_t k = 1 + rng.below(4);
    const std::size_t alphabet = (n + k - 1) / k + 1 + rng.below(3);
    const auto ring = random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value());
    EXPECT_EQ(ring->true_leader(), ring->true_leader_naive())
        << ring->to_string();
  }
}

TEST(LabeledRingTest, ToStringRendersClockwise) {
  EXPECT_EQ(LabeledRing::from_values({1, 3, 2}).to_string(), "1.3.2");
}

}  // namespace
}  // namespace hring::ring
