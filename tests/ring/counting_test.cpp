#include "ring/counting.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "ring/generator.hpp"

namespace hring::ring {
namespace {

TEST(MobiusTest, KnownValues) {
  // OEIS A008683.
  const std::int64_t expected[] = {1,  -1, -1, 0, -1, 1,  -1, 0,
                                   0,  1,  -1, 0, -1, 1,  1,  0,
                                   -1, 0,  -1, 0};
  for (std::uint64_t n = 1; n <= 20; ++n) {
    EXPECT_EQ(mobius(n), expected[n - 1]) << "n=" << n;
  }
}

TEST(MobiusTest, MultiplicativeOnCoprimes) {
  EXPECT_EQ(mobius(6), mobius(2) * mobius(3));
  EXPECT_EQ(mobius(35), mobius(5) * mobius(7));
  EXPECT_EQ(mobius(30), mobius(2) * mobius(3) * mobius(5));
}

TEST(TotientTest, KnownValues) {
  // OEIS A000010.
  const std::uint64_t expected[] = {1, 1, 2, 2, 4, 2, 6, 4, 6, 4,
                                    10, 4, 12, 6, 8, 8, 16, 6, 18, 8};
  for (std::uint64_t n = 1; n <= 20; ++n) {
    EXPECT_EQ(totient(n), expected[n - 1]) << "n=" << n;
  }
}

TEST(TotientTest, SumOverDivisorsIsN) {
  for (std::uint64_t n = 1; n <= 60; ++n) {
    std::uint64_t sum = 0;
    for (std::uint64_t d = 1; d <= n; ++d) {
      if (n % d == 0) sum += totient(d);
    }
    EXPECT_EQ(sum, n) << "n=" << n;
  }
}

TEST(CheckedPowTest, Basics) {
  EXPECT_EQ(checked_pow(2, 10), 1024u);
  EXPECT_EQ(checked_pow(3, 0), 1u);
  EXPECT_EQ(checked_pow(1, 100), 1u);
  EXPECT_EQ(checked_pow(10, 5), 100000u);
}

TEST(CountingTest, LyndonWordCountsKnown) {
  // Binary Lyndon word counts (OEIS A001037): n=1..10.
  const std::uint64_t expected[] = {2, 1, 2, 3, 6, 9, 18, 30, 56, 99};
  for (std::uint64_t n = 1; n <= 10; ++n) {
    EXPECT_EQ(count_asymmetric_rings(n, 2), expected[n - 1]) << "n=" << n;
  }
}

TEST(CountingTest, NecklaceCountsKnown) {
  // Binary necklace counts (OEIS A000031): n=1..8.
  const std::uint64_t expected[] = {2, 3, 4, 6, 8, 14, 20, 36};
  for (std::uint64_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(count_necklaces(n, 2), expected[n - 1]) << "n=" << n;
  }
}

class EnumerationCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(EnumerationCrossCheck, LabelingsMatchMobiusFormula) {
  const auto [n, a] = GetParam();
  const auto labelings = enumerate_rings(n, a, /*asymmetric_only=*/true,
                                         /*canonical_only=*/false);
  EXPECT_EQ(labelings.size(), count_asymmetric_labelings(n, a));
}

TEST_P(EnumerationCrossCheck, CanonicalClassesMatchLyndonCount) {
  const auto [n, a] = GetParam();
  const auto classes = enumerate_rings(n, a, /*asymmetric_only=*/true,
                                       /*canonical_only=*/true);
  EXPECT_EQ(classes.size(), count_asymmetric_rings(n, a));
}

TEST_P(EnumerationCrossCheck, AllClassesMatchBurnside) {
  const auto [n, a] = GetParam();
  const auto classes = enumerate_rings(n, a, /*asymmetric_only=*/false,
                                       /*canonical_only=*/true);
  EXPECT_EQ(classes.size(), count_necklaces(n, a));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumerationCrossCheck,
    ::testing::Values(std::tuple<std::size_t, std::size_t>{2, 2},
                      std::tuple<std::size_t, std::size_t>{3, 2},
                      std::tuple<std::size_t, std::size_t>{4, 2},
                      std::tuple<std::size_t, std::size_t>{5, 2},
                      std::tuple<std::size_t, std::size_t>{6, 2},
                      std::tuple<std::size_t, std::size_t>{7, 2},
                      std::tuple<std::size_t, std::size_t>{8, 2},
                      std::tuple<std::size_t, std::size_t>{3, 3},
                      std::tuple<std::size_t, std::size_t>{4, 3},
                      std::tuple<std::size_t, std::size_t>{5, 3},
                      std::tuple<std::size_t, std::size_t>{6, 3},
                      std::tuple<std::size_t, std::size_t>{4, 4},
                      std::tuple<std::size_t, std::size_t>{5, 4}),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_a";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

}  // namespace
}  // namespace hring::ring
