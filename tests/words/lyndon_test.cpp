#include "words/lyndon.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <tuple>

#include "support/rng.hpp"
#include "words/label.hpp"
#include "words/periodicity.hpp"

namespace hring::words {
namespace {

LabelSequence random_sequence(std::size_t len, std::size_t alphabet,
                              support::Rng& rng) {
  LabelSequence seq;
  seq.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    seq.emplace_back(rng.below(alphabet) + 1);
  }
  return seq;
}

TEST(RotateTest, RotationsOfSmallSequence) {
  const LabelSequence seq = make_sequence({1, 2, 3});
  EXPECT_EQ(rotate(seq, 0), make_sequence({1, 2, 3}));
  EXPECT_EQ(rotate(seq, 1), make_sequence({2, 3, 1}));
  EXPECT_EQ(rotate(seq, 2), make_sequence({3, 1, 2}));
}

TEST(CompareRotationsTest, BasicOrdering) {
  const LabelSequence seq = make_sequence({2, 1, 3});
  // rotation 1 = (1,3,2) < rotation 0 = (2,1,3) < rotation 2 = (3,2,1).
  EXPECT_EQ(compare_rotations(seq, 1, 0), std::strong_ordering::less);
  EXPECT_EQ(compare_rotations(seq, 0, 2), std::strong_ordering::less);
  EXPECT_EQ(compare_rotations(seq, 2, 1), std::strong_ordering::greater);
  EXPECT_EQ(compare_rotations(seq, 1, 1), std::strong_ordering::equal);
}

TEST(CompareRotationsTest, EqualRotationsOfPeriodicSequence) {
  const LabelSequence seq = make_sequence({1, 2, 1, 2});
  EXPECT_EQ(compare_rotations(seq, 0, 2), std::strong_ordering::equal);
  EXPECT_EQ(compare_rotations(seq, 1, 3), std::strong_ordering::equal);
  EXPECT_NE(compare_rotations(seq, 0, 1), std::strong_ordering::equal);
}

TEST(LeastRotationTest, KnownCases) {
  EXPECT_EQ(least_rotation_index(make_sequence({2, 1, 3})), 1u);
  EXPECT_EQ(least_rotation_index(make_sequence({1, 2, 3})), 0u);
  EXPECT_EQ(least_rotation_index(make_sequence({3, 2, 1})), 2u);
  EXPECT_EQ(least_rotation_index(make_sequence({5})), 0u);
}

TEST(LeastRotationTest, TieBreaksToSmallestIndex) {
  // (1,2,1,2): rotations 0 and 2 tie; Booth must return 0.
  EXPECT_EQ(least_rotation_index(make_sequence({1, 2, 1, 2})), 0u);
  EXPECT_EQ(least_rotation_index(make_sequence({2, 1, 2, 1})), 1u);
  EXPECT_EQ(least_rotation_index(make_sequence({7, 7, 7})), 0u);
}

TEST(HasRotationalSymmetryTest, SymmetricCases) {
  EXPECT_TRUE(has_rotational_symmetry(make_sequence({1, 2, 1, 2})));
  EXPECT_TRUE(has_rotational_symmetry(make_sequence({4, 4})));
  EXPECT_TRUE(has_rotational_symmetry(make_sequence({1, 2, 3, 1, 2, 3})));
}

TEST(HasRotationalSymmetryTest, AsymmetricCases) {
  EXPECT_FALSE(has_rotational_symmetry(make_sequence({1})));
  EXPECT_FALSE(has_rotational_symmetry(make_sequence({1, 2})));
  EXPECT_FALSE(has_rotational_symmetry(make_sequence({1, 2, 2})));
  // Period 3 does not divide 5, so no cyclic symmetry despite periodicity.
  EXPECT_FALSE(has_rotational_symmetry(make_sequence({1, 1, 2, 1, 1})));
  EXPECT_FALSE(has_rotational_symmetry(make_sequence({1, 3, 1, 3, 2, 2, 1,
                                                      2})));
}

TEST(HasRotationalSymmetryTest, EmptyIsNotSymmetric) {
  EXPECT_FALSE(has_rotational_symmetry({}));
}

/// Definitional symmetry: some rotation by d in 1..n-1 equals rotation 0.
bool symmetric_naive(const LabelSequence& seq) {
  for (std::size_t d = 1; d < seq.size(); ++d) {
    if (compare_rotations(seq, 0, d) == std::strong_ordering::equal) {
      return true;
    }
  }
  return false;
}

TEST(HasRotationalSymmetryTest, MatchesNaiveOnEveryBinarySequenceUpTo12) {
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t bits = 0; bits < (std::size_t{1} << n); ++bits) {
      LabelSequence seq;
      for (std::size_t i = 0; i < n; ++i) {
        seq.emplace_back(1 + ((bits >> i) & 1));
      }
      ASSERT_EQ(has_rotational_symmetry(seq), symmetric_naive(seq))
          << to_string(seq);
    }
  }
}

TEST(HasRotationalSymmetryTest, MatchesNaiveOnRandomSequences) {
  support::Rng rng(0x5e7a);
  for (int rep = 0; rep < 2000; ++rep) {
    const std::size_t len = 1 + rng.below(64);
    const LabelSequence seq = random_sequence(len, 1 + rng.below(4), rng);
    EXPECT_EQ(has_rotational_symmetry(seq), symmetric_naive(seq))
        << to_string(seq);
  }
}

TEST(HasRotationalSymmetryTest, MatchesNaiveOnRepeatedBlocks) {
  // block^reps is symmetric for reps >= 2; changing one label of it
  // usually breaks every symmetry, and when it does not, the naive check
  // says so too.
  support::Rng rng(0xb10c);
  for (int rep = 0; rep < 500; ++rep) {
    const LabelSequence block =
        random_sequence(1 + rng.below(8), 1 + rng.below(3), rng);
    const std::size_t reps = 1 + rng.below(6);
    LabelSequence seq;
    for (std::size_t r = 0; r < reps; ++r) {
      seq.insert(seq.end(), block.begin(), block.end());
    }
    EXPECT_EQ(has_rotational_symmetry(seq), symmetric_naive(seq))
        << to_string(seq);
    seq[rng.below(seq.size())] = Label(rng.below(4) + 1);
    EXPECT_EQ(has_rotational_symmetry(seq), symmetric_naive(seq))
        << to_string(seq);
  }
}

TEST(IsLyndonTest, KnownLyndonWords) {
  EXPECT_TRUE(is_lyndon(make_sequence({1})));
  EXPECT_TRUE(is_lyndon(make_sequence({1, 2})));
  EXPECT_TRUE(is_lyndon(make_sequence({1, 1, 2})));
  EXPECT_TRUE(is_lyndon(make_sequence({1, 2, 2})));
  EXPECT_TRUE(is_lyndon(make_sequence({1, 1, 2, 1, 2})));
}

TEST(IsLyndonTest, KnownNonLyndonWords) {
  EXPECT_FALSE(is_lyndon({}));
  EXPECT_FALSE(is_lyndon(make_sequence({2, 1})));
  EXPECT_FALSE(is_lyndon(make_sequence({1, 1})));       // periodic
  EXPECT_FALSE(is_lyndon(make_sequence({1, 2, 1, 2}))); // periodic
  EXPECT_FALSE(is_lyndon(make_sequence({2, 1, 2})));    // rotation smaller
}

TEST(LyndonRotationTest, RotatesToLyndonWord) {
  EXPECT_EQ(lyndon_rotation(make_sequence({2, 1, 3})),
            make_sequence({1, 3, 2}));
  EXPECT_EQ(lyndon_rotation(make_sequence({2, 2, 1})),
            make_sequence({1, 2, 2}));
  EXPECT_EQ(lyndon_rotation(make_sequence({1, 2, 2})),
            make_sequence({1, 2, 2}));
}

TEST(LyndonRotationTest, FirstLabelShortcutAgrees) {
  const LabelSequence seq = make_sequence({3, 1, 4, 1, 5, 9, 2, 6});
  EXPECT_EQ(lyndon_rotation_first(seq), lyndon_rotation(seq)[0]);
}

TEST(DuvalTest, SingleLyndonWord) {
  const auto lengths = duval_factorization(make_sequence({1, 2, 3}));
  EXPECT_EQ(lengths, (std::vector<std::size_t>{3}));
}

TEST(DuvalTest, DecreasingLetters) {
  const auto lengths = duval_factorization(make_sequence({3, 2, 1}));
  EXPECT_EQ(lengths, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(DuvalTest, ClassicExample) {
  // (1,2,1,1,2,1) = (1,2)(1,1,2)(1): factors 2,3,1.
  const auto lengths =
      duval_factorization(make_sequence({1, 2, 1, 1, 2, 1}));
  EXPECT_EQ(lengths, (std::vector<std::size_t>{2, 3, 1}));
}

// -- properties over random sequences -------------------------------------

class LyndonProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(LyndonProperty, BoothMatchesNaive) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0xb001 + len * 131 + alphabet);
  for (int rep = 0; rep < 40; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    EXPECT_EQ(least_rotation_index(seq), least_rotation_index_naive(seq))
        << to_string(seq);
  }
}

TEST_P(LyndonProperty, IsLyndonMatchesNaive) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x17d0 + len * 37 + alphabet);
  for (int rep = 0; rep < 40; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    EXPECT_EQ(is_lyndon(seq), is_lyndon_naive(seq)) << to_string(seq);
  }
}

TEST_P(LyndonProperty, LyndonRotationIsLyndonWhenAperiodic) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x90210 + len * 61 + alphabet);
  for (int rep = 0; rep < 40; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    if (has_rotational_symmetry(seq)) continue;
    const LabelSequence lw = lyndon_rotation(seq);
    EXPECT_TRUE(is_lyndon_naive(lw)) << to_string(seq);
    EXPECT_EQ(lw[0], lyndon_rotation_first(seq));
  }
}

TEST_P(LyndonProperty, DuvalFactorsAreNonIncreasingLyndonWords) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0xd0f1 + len * 89 + alphabet);
  for (int rep = 0; rep < 20; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    const auto lengths = duval_factorization(seq);
    std::size_t offset = 0;
    LabelSequence prev;
    for (const std::size_t flen : lengths) {
      ASSERT_LE(offset + flen, seq.size());
      const LabelSequence factor(
          seq.begin() + static_cast<std::ptrdiff_t>(offset),
          seq.begin() + static_cast<std::ptrdiff_t>(offset + flen));
      EXPECT_TRUE(is_lyndon_naive(factor))
          << to_string(seq) << " factor " << to_string(factor);
      if (!prev.empty()) {
        // w_{i-1} >= w_i lexicographically.
        EXPECT_FALSE(std::lexicographical_compare(prev.begin(), prev.end(),
                                                  factor.begin(),
                                                  factor.end()))
            << to_string(seq);
      }
      prev = factor;
      offset += flen;
    }
    EXPECT_EQ(offset, seq.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LyndonProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4, 5, 8, 13,
                                                      21, 48),
                       ::testing::Values<std::size_t>(1, 2, 3, 5)),
    [](const auto& pinfo) {
      return "len" + std::to_string(std::get<0>(pinfo.param)) + "_a" +
             std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace hring::words
