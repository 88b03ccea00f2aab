#include "tests/words/zfunction.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "support/rng.hpp"
#include "tests/words/reference.hpp"
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

TEST(ZFunctionTest, EmptyAndSingleton) {
  EXPECT_TRUE(z_array({}).empty());
  const auto z = z_array(make_sequence({5}));
  ASSERT_EQ(z.size(), 1u);
  EXPECT_EQ(z[0], 1u);
}

TEST(ZFunctionTest, ClassicExample) {
  // "aabxaab": z = 7,1,0,0,3,1,0 with labels a=1, b=2, x=3.
  const auto z = z_array(make_sequence({1, 1, 2, 3, 1, 1, 2}));
  const std::vector<std::size_t> expected = {7, 1, 0, 0, 3, 1, 0};
  EXPECT_EQ(z, expected);
}

TEST(ZFunctionTest, AllEqualLetters) {
  const auto z = z_array(make_sequence({4, 4, 4, 4}));
  const std::vector<std::size_t> expected = {4, 3, 2, 1};
  EXPECT_EQ(z, expected);
}

TEST(ZFunctionTest, PeriodFromZMatchesKnownCases) {
  EXPECT_EQ(smallest_period_z(make_sequence({1, 2, 1, 2, 1})), 2u);
  EXPECT_EQ(smallest_period_z(make_sequence({1, 1, 2})), 3u);
  EXPECT_EQ(smallest_period_z(make_sequence({7})), 1u);
  EXPECT_EQ(smallest_period_z(make_sequence({1, 2, 3, 4})), 4u);
}

TEST(ZFunctionTest, AllPeriodsOfPeriodicWord) {
  // (1,2)^3: periods 2, 4, 6.
  const auto periods = all_periods(make_sequence({1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(periods, (std::vector<std::size_t>{2, 4, 6}));
}

TEST(ZFunctionTest, AllPeriodsSatisfyDefinition) {
  const auto seq = make_sequence({1, 1, 2, 1, 1, 2, 1, 1});
  const auto periods = all_periods(seq);
  // Every listed value is a period; every period is listed.
  for (std::size_t p = 1; p <= seq.size(); ++p) {
    const bool listed =
        std::find(periods.begin(), periods.end(), p) != periods.end();
    EXPECT_EQ(listed, is_period(seq, p)) << "p=" << p;
  }
}

class ZSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ZSweep, LinearMatchesNaive) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x2aa + len * 11 + alphabet);
  for (int rep = 0; rep < 30; ++rep) {
    const auto seq = random_sequence(len, alphabet, rng);
    EXPECT_EQ(z_array(seq), z_array_naive(seq)) << to_string(seq);
  }
}

TEST_P(ZSweep, PeriodAgreesWithBorderDerivation) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x2bb + len * 13 + alphabet);
  for (int rep = 0; rep < 30; ++rep) {
    const auto seq = random_sequence(len, alphabet, rng);
    EXPECT_EQ(smallest_period_z(seq), smallest_period(seq))
        << to_string(seq);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 21, 64),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& pinfo) {
      return "len" + std::to_string(std::get<0>(pinfo.param)) + "_a" +
             std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace hring::words
