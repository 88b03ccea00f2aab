#include "words/periodicity.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "support/rng.hpp"
#include "words/label.hpp"
#include "words/lyndon.hpp"

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

TEST(BorderArrayTest, EmptySequence) {
  EXPECT_TRUE(border_array({}).empty());
}

TEST(BorderArrayTest, SingleLetter) {
  const auto b = border_array(make_sequence({7}));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 0u);
}

TEST(BorderArrayTest, ClassicExample) {
  // "abcabca" pattern with labels: borders 0 0 0 1 2 3 4.
  const auto b = border_array(make_sequence({1, 2, 3, 1, 2, 3, 1}));
  const std::vector<std::size_t> expected = {0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(b, expected);
}

TEST(BorderArrayTest, AllSameLetter) {
  const auto b = border_array(make_sequence({4, 4, 4, 4}));
  const std::vector<std::size_t> expected = {0, 1, 2, 3};
  EXPECT_EQ(b, expected);
}

TEST(SmallestPeriodTest, SingleLetterIsPeriodOne) {
  EXPECT_EQ(smallest_period(make_sequence({9})), 1u);
}

TEST(SmallestPeriodTest, AllSameIsPeriodOne) {
  EXPECT_EQ(smallest_period(make_sequence({2, 2, 2, 2, 2})), 1u);
}

TEST(SmallestPeriodTest, AperiodicIsFullLength) {
  EXPECT_EQ(smallest_period(make_sequence({1, 2, 3, 4})), 4u);
}

TEST(SmallestPeriodTest, ExactRepetition) {
  EXPECT_EQ(smallest_period(make_sequence({1, 2, 1, 2, 1, 2})), 2u);
}

TEST(SmallestPeriodTest, TruncatedRepetition) {
  // The paper's repeating-prefix definition admits truncation: 1,2,3,1,2
  // is a truncation of (1,2,3)^inf.
  EXPECT_EQ(smallest_period(make_sequence({1, 2, 3, 1, 2})), 3u);
}

TEST(SmallestPeriodTest, NonDivisorPeriod) {
  // A smallest period need not divide the length: "aabaa" has period 3.
  EXPECT_EQ(smallest_period(make_sequence({1, 1, 2})), 3u);
  EXPECT_EQ(smallest_period(make_sequence({1, 1, 2, 1, 1})), 3u);
}

TEST(SmallestPeriodTest, FigureOneRing) {
  // The counter-clockwise unrolled Figure 1 labels, doubled, have period 8.
  const LabelSequence ring =
      make_sequence({1, 2, 1, 2, 2, 3, 1, 3, 1, 2, 1, 2, 2, 3, 1, 3});
  EXPECT_EQ(smallest_period(ring), 8u);
}

TEST(IsPeriodTest, DefinitionalChecks) {
  const LabelSequence seq = make_sequence({1, 2, 1, 2, 1});
  EXPECT_FALSE(is_period(seq, 1));
  EXPECT_TRUE(is_period(seq, 2));
  EXPECT_FALSE(is_period(seq, 3));
  EXPECT_TRUE(is_period(seq, 4));
  EXPECT_TRUE(is_period(seq, 5));   // whole length is always a period
  EXPECT_TRUE(is_period(seq, 99));  // beyond length: vacuously true
}

TEST(SrpTest, ReturnsShortestRepeatingPrefix) {
  EXPECT_EQ(srp(make_sequence({1, 2, 1, 2, 1})), make_sequence({1, 2}));
  EXPECT_EQ(srp(make_sequence({3})), make_sequence({3}));
  EXPECT_EQ(srp(make_sequence({1, 2, 3})), make_sequence({1, 2, 3}));
}

TEST(SrpTest, SrpIsARepeatingPrefixByDefinition) {
  const LabelSequence seq = make_sequence({2, 1, 2, 2, 1, 2, 2, 1});
  const LabelSequence pi = srp(seq);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], pi[i % pi.size()]) << "position " << i;
  }
}

TEST(IncrementalPeriodTest, EmptyInitially) {
  IncrementalPeriod inc;
  EXPECT_EQ(inc.size(), 0u);
  EXPECT_EQ(inc.border(), 0u);
}

TEST(IncrementalPeriodTest, TracksBatchComputation) {
  IncrementalPeriod inc;
  const LabelSequence seq = make_sequence({1, 2, 1, 1, 2, 1, 2, 1, 2});
  for (std::size_t i = 0; i < seq.size(); ++i) {
    inc.push_back(seq[i]);
    const LabelSequence prefix(seq.begin(),
                               seq.begin() + static_cast<std::ptrdiff_t>(i) +
                                   1);
    EXPECT_EQ(inc.period(), smallest_period(prefix)) << "prefix len " << i + 1;
    EXPECT_EQ(inc.sequence(), prefix);
  }
}

TEST(IncrementalPeriodTest, TruncateToEmptyThenRegrow) {
  IncrementalPeriod inc;
  for (const Label l : make_sequence({2, 1, 2, 1})) inc.push_back(l);
  inc.truncate(0);
  EXPECT_EQ(inc.size(), 0u);
  EXPECT_EQ(inc.border(), 0u);
  inc.push_back(Label(1));
  EXPECT_EQ(inc.period(), 1u);
}

// -- srp's cached least rotation ------------------------------------------

/// Booth's least-rotation index of srp(seq), computed from scratch.
std::size_t fresh_srp_rotation(const LabelSequence& seq) {
  return least_rotation_index(srp(seq));
}

IncrementalPeriod built_from(std::initializer_list<Label::rep_type> values) {
  IncrementalPeriod inc;
  for (const Label l : make_sequence(values)) inc.push_back(l);
  return inc;
}

/// Label comparisons one srp_least_rotation() call performs.
std::uint64_t comparisons_of_lookup(IncrementalPeriod& inc) {
  Label::reset_comparison_count();
  static_cast<void>(inc.srp_least_rotation());
  return Label::comparison_count();
}

TEST(IncrementalPeriodTest, SrpRotationFollowsPeriodGrowth) {
  // Periods 1, 2, 2, 4, 4, 6, 7, 7: srp grows three times, and its least
  // rotation moves with it (2.1 -> 1.2, 2.1.2.3 -> 1.2.3.2, ...).
  IncrementalPeriod inc;
  const LabelSequence seq = make_sequence({2, 1, 2, 3, 2, 1, 1, 2});
  for (std::size_t i = 0; i < seq.size(); ++i) {
    inc.push_back(seq[i]);
    const LabelSequence prefix(seq.begin(),
                               seq.begin() + static_cast<std::ptrdiff_t>(i) +
                                   1);
    EXPECT_EQ(inc.srp_least_rotation(), fresh_srp_rotation(prefix))
        << "prefix len " << i + 1;
  }
}

TEST(IncrementalPeriodTest, SrpRotationIsScannedOncePerPeriod) {
  IncrementalPeriod inc = built_from({3, 1, 2});
  EXPECT_GT(comparisons_of_lookup(inc), 0u);  // first lookup: Booth's scan
  EXPECT_EQ(inc.srp_least_rotation(), 1u);
  for (const Label l : make_sequence({3, 1, 2, 3, 1})) {
    inc.push_back(l);  // keeps the period at 3
    EXPECT_EQ(comparisons_of_lookup(inc), 0u) << "size " << inc.size();
    EXPECT_EQ(inc.srp_least_rotation(), 1u);
  }
  inc.push_back(Label(1));  // 3.1.2.3.1.2.3.1.1: period 8
  EXPECT_GT(comparisons_of_lookup(inc), 0u);
  EXPECT_EQ(inc.srp_least_rotation(), fresh_srp_rotation(inc.sequence()));
}

TEST(IncrementalPeriodTest, TruncateBelowTheCachedPeriodDropsTheRotation) {
  // 2.2.2.1 (period 4) has least rotation 1.2.2.2 at index 3. Cut to 2.2.2
  // and push 3: 2.2.2.3 has period 4 again, but is its own least rotation.
  IncrementalPeriod inc = built_from({2, 2, 2, 1});
  ASSERT_EQ(inc.period(), 4u);
  EXPECT_EQ(inc.srp_least_rotation(), 3u);
  inc.truncate(3);
  inc.push_back(Label(3));
  ASSERT_EQ(inc.period(), 4u);
  EXPECT_EQ(inc.srp_least_rotation(), 0u);
}

TEST(IncrementalPeriodTest, TruncateAtOrAboveTheCachedPeriodKeepsIt) {
  // 2.1.2.1.2 has period 2: cutting to 4, 3 or 2 labels keeps srp = 2.1.
  IncrementalPeriod inc = built_from({2, 1, 2, 1, 2});
  EXPECT_EQ(inc.srp_least_rotation(), 1u);
  for (const std::size_t cut : {4u, 3u, 2u}) {
    inc.truncate(cut);
    EXPECT_EQ(comparisons_of_lookup(inc), 0u) << "cut " << cut;
    EXPECT_EQ(inc.srp_least_rotation(), 1u);
  }
  // Below it the period changes (2 -> 1), and the rotation is scanned anew.
  inc.truncate(1);
  EXPECT_EQ(inc.srp_least_rotation(), 0u);
}

TEST(IncrementalPeriodTest, ClearDropsTheRotation) {
  IncrementalPeriod inc = built_from({2, 2, 2, 1});
  EXPECT_EQ(inc.srp_least_rotation(), 3u);
  inc.clear();
  for (const Label l : make_sequence({2, 2, 2, 3})) inc.push_back(l);
  ASSERT_EQ(inc.period(), 4u);
  EXPECT_EQ(inc.srp_least_rotation(), 0u);
}

TEST(IncrementalPeriodTest, PrefixPeriodChecksItsRange) {
  IncrementalPeriod inc = built_from({1, 2});
  EXPECT_EQ(inc.prefix_period(2), 2u);
  EXPECT_DEATH(static_cast<void>(inc.prefix_period(0)), "precondition");
  EXPECT_DEATH(static_cast<void>(inc.prefix_period(3)), "precondition");
}

// -- properties over random sequences -------------------------------------

/// Every query of `got` equals the same query of `want`.
void expect_same_periods(const IncrementalPeriod& got,
                         const IncrementalPeriod& want) {
  ASSERT_EQ(got.sequence(), want.sequence());
  EXPECT_EQ(got.border(), want.border());
  if (want.size() == 0) return;
  EXPECT_EQ(got.period(), want.period());
  for (std::size_t len = 1; len <= want.size(); ++len) {
    EXPECT_EQ(got.prefix_period(len), want.prefix_period(len))
        << "prefix len " << len;
  }
}

class PeriodProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PeriodProperty, KmpMatchesNaive) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x5eed0000 + len * 131 + alphabet);
  for (int rep = 0; rep < 40; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    EXPECT_EQ(smallest_period(seq), smallest_period_naive(seq))
        << to_string(seq);
  }
}

TEST_P(PeriodProperty, IncrementalMatchesBatch) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0xabc0000 + len * 17 + alphabet);
  for (int rep = 0; rep < 20; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    IncrementalPeriod inc;
    for (const Label l : seq) inc.push_back(l);
    EXPECT_EQ(inc.period(), smallest_period(seq)) << to_string(seq);
  }
}

TEST_P(PeriodProperty, TruncateMatchesAFreshPrefix) {
  // A prefix's border array is the prefix of the border array: truncating
  // to any length must answer every query as a fresh build of that prefix,
  // and keep doing so once the same continuation is pushed onto both.
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x7e5c0000 + len * 37 + alphabet);
  for (int rep = 0; rep < 10; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    const LabelSequence continuation = random_sequence(len, alphabet, rng);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      IncrementalPeriod truncated;
      for (const Label l : seq) truncated.push_back(l);
      truncated.truncate(cut);
      IncrementalPeriod fresh;
      for (std::size_t i = 0; i < cut; ++i) fresh.push_back(seq[i]);
      expect_same_periods(truncated, fresh);
      for (const Label l : continuation) {
        truncated.push_back(l);
        fresh.push_back(l);
      }
      // prefix_period covers every intermediate length of the regrowth.
      expect_same_periods(truncated, fresh);
    }
  }
}

TEST_P(PeriodProperty, SrpRotationMatchesAFreshScan) {
  // Random pushes, cuts on both sides of the cached period, and clears.
  // After about half of them, the cached rotation must be Booth's index of
  // the current srp; the other half let a cut or a clear and the pushes
  // after it meet the next lookup together.
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0x5c4a0000 + len * 41 + alphabet);
  IncrementalPeriod inc;
  for (int op = 0; op < 400; ++op) {
    const std::size_t dice = rng.below(10);
    if (dice == 0) {
      inc.clear();
    } else if (dice <= 2 && inc.size() > 0) {
      const std::size_t p = inc.period();
      // Half the cuts keep srp (len >= p), half cut into it.
      const std::size_t cut = rng.below(2) == 0
                                  ? p + rng.below(inc.size() - p + 1)
                                  : rng.below(p);
      inc.truncate(cut);
    } else if (inc.size() < len) {
      inc.push_back(Label(rng.below(alphabet) + 1));
    }
    if (inc.size() == 0 || rng.below(2) == 0) continue;
    EXPECT_EQ(inc.srp_least_rotation(), fresh_srp_rotation(inc.sequence()))
        << to_string(inc.sequence()) << " after op " << op;
  }
}

TEST_P(PeriodProperty, PeriodIsAPeriodAndMinimal) {
  const auto [len, alphabet] = GetParam();
  support::Rng rng(0xf00d0000 + len * 29 + alphabet);
  for (int rep = 0; rep < 20; ++rep) {
    const LabelSequence seq = random_sequence(len, alphabet, rng);
    const std::size_t p = smallest_period(seq);
    EXPECT_TRUE(is_period(seq, p)) << to_string(seq);
    for (std::size_t q = 1; q < p; ++q) {
      EXPECT_FALSE(is_period(seq, q)) << to_string(seq) << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeriodProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21,
                                                      34, 64),
                       ::testing::Values<std::size_t>(1, 2, 3, 5)),
    [](const auto& pinfo) {
      return "len" + std::to_string(std::get<0>(pinfo.param)) + "_a" +
             std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace hring::words
