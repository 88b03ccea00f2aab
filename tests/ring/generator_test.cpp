#include "ring/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "ring/classes.hpp"
#include "words/lyndon.hpp"

namespace hring::ring {
namespace {

TEST(GeneratorTest, SequentialRingHasExpectedLabels) {
  const auto ring = sequential_ring(4);
  EXPECT_EQ(ring.to_string(), "1.2.3.4");
  EXPECT_TRUE(in_class_K1(ring));
}

TEST(GeneratorTest, DistinctRingIsPermutation) {
  support::Rng rng(7);
  const auto ring = distinct_ring(12, rng);
  EXPECT_TRUE(in_class_K1(ring));
  std::set<Label::rep_type> seen;
  for (const Label l : ring.labels()) seen.insert(l.value());
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(*seen.begin(), 1u);
  EXPECT_EQ(*seen.rbegin(), 12u);
}

TEST(GeneratorTest, UniformRandomRingRespectsAlphabet) {
  support::Rng rng(11);
  const auto ring = uniform_random_ring(50, 3, rng);
  for (const Label l : ring.labels()) {
    EXPECT_GE(l.value(), 1u);
    EXPECT_LE(l.value(), 3u);
  }
}

class AsymmetricGeneratorSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(AsymmetricGeneratorSweep, ProducesMembersOfAIntersectKk) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xA11CE + n * 100 + k);
  const std::size_t alphabet = (n + k - 1) / k + 2;
  for (int rep = 0; rep < 20; ++rep) {
    const auto ring = random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value()) << "n=" << n << " k=" << k;
    EXPECT_EQ(ring->size(), n);
    EXPECT_TRUE(in_class_A(*ring)) << ring->to_string();
    EXPECT_TRUE(in_class_Kk(*ring, k)) << ring->to_string();
  }
}

TEST_P(AsymmetricGeneratorSweep, UniqueLabelRingIsInUstarKk) {
  const auto [n, k] = GetParam();
  support::Rng rng(0xBEEF + n * 100 + k);
  for (int rep = 0; rep < 20; ++rep) {
    const auto ring = unique_label_ring(n, k, rng);
    EXPECT_EQ(ring.size(), n);
    EXPECT_TRUE(in_class_Ustar(ring)) << ring.to_string();
    EXPECT_TRUE(in_class_Kk(ring, k)) << ring.to_string();
    EXPECT_TRUE(in_class_A(ring)) << ring.to_string();
    EXPECT_EQ(ring.multiplicity(Label(1)), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsymmetricGeneratorSweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 5, 8, 16, 33),
                       ::testing::Values<std::size_t>(1, 2, 3, 4)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_k";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

TEST(GeneratorTest, SaturatedRingHasLabelWithMultiplicityExactlyK) {
  support::Rng rng(31337);
  for (const std::size_t k : {1u, 2u, 3u, 5u}) {
    const std::size_t n = 4 * k + 1;
    const auto ring = saturated_multiplicity_ring(n, k, rng);
    ASSERT_TRUE(ring.has_value());
    EXPECT_EQ(ring->multiplicity(Label(1)), k);
    EXPECT_EQ(ring->max_multiplicity(), k);
    EXPECT_TRUE(in_class_A(*ring));
  }
}

TEST(GeneratorTest, EnumerationCountsMatchAlphabetPower) {
  const auto all = enumerate_rings(3, 2, /*asymmetric_only=*/false,
                                   /*canonical_only=*/false);
  EXPECT_EQ(all.size(), 8u);  // 2^3
}

TEST(GeneratorTest, EnumerationAsymmetricOnlyExcludesSymmetric) {
  const auto asym = enumerate_rings(4, 2, /*asymmetric_only=*/true,
                                    /*canonical_only=*/false);
  for (const auto& ring : asym) {
    EXPECT_TRUE(in_class_A(ring)) << ring.to_string();
  }
  // 2^4 = 16 total; symmetric over {1,2}: 1111, 2222, 1212, 2121 -> 12 left.
  EXPECT_EQ(asym.size(), 12u);
}

TEST(GeneratorTest, EnumerationCanonicalKeepsOnePerRotationClass) {
  const auto canon = enumerate_rings(4, 2, /*asymmetric_only=*/true,
                                     /*canonical_only=*/true);
  // 12 asymmetric labelings / 4 rotations each = 3 classes.
  EXPECT_EQ(canon.size(), 3u);
  for (const auto& ring : canon) {
    EXPECT_EQ(words::least_rotation_index(ring.labels()), 0u);
  }
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  support::Rng rng1(99);
  support::Rng rng2(99);
  const auto a = distinct_ring(10, rng1);
  const auto b = distinct_ring(10, rng2);
  EXPECT_EQ(a.to_string(), b.to_string());
}

}  // namespace
}  // namespace hring::ring
