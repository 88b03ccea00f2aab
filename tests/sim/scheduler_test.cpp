#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

namespace hring::sim {
namespace {

const std::vector<ProcessId> kEnabled = {0, 2, 5, 7};

/// The bitset of `pids` over n processes.
std::vector<std::uint64_t> to_set(const std::vector<ProcessId>& pids,
                                  std::size_t n = 8) {
  std::vector<std::uint64_t> set(pid_set_words(n), 0);
  for (const ProcessId pid : pids) set[pid / 64] |= pid_bit(pid);
  return set;
}

/// The members of `set`, ascending.
std::vector<ProcessId> members(PidSet set) {
  std::vector<ProcessId> out;
  for_each_pid(set, [&out](ProcessId pid) { out.push_back(pid); });
  return out;
}

/// One select over `enabled` (n processes) into an empty chosen set.
std::vector<ProcessId> pick(Scheduler& sched,
                            const std::vector<ProcessId>& enabled,
                            std::size_t n = 8) {
  const std::vector<std::uint64_t> set = to_set(enabled, n);
  std::vector<std::uint64_t> chosen(set.size(), 0);
  sched.select(set, chosen);
  return members(chosen);
}

TEST(SynchronousSchedulerTest, SelectsEveryone) {
  SynchronousScheduler sched;
  EXPECT_EQ(pick(sched, kEnabled), kEnabled);
}

TEST(RoundRobinSchedulerTest, RotatesThroughEnabled) {
  RoundRobinScheduler sched;
  std::vector<ProcessId> picks;
  for (int i = 0; i < 8; ++i) {
    const std::vector<ProcessId> out = pick(sched, kEnabled);
    ASSERT_EQ(out.size(), 1u);
    picks.push_back(out[0]);
  }
  // Two full rotations over {0,2,5,7}.
  const std::vector<ProcessId> expected = {0, 2, 5, 7, 0, 2, 5, 7};
  EXPECT_EQ(picks, expected);
}

TEST(RoundRobinSchedulerTest, SkipsDisabled) {
  RoundRobinScheduler sched;
  EXPECT_EQ(pick(sched, {3, 9}, 10), (std::vector<ProcessId>{3}));
  // next_=4: first enabled >= 4 is 9
  EXPECT_EQ(pick(sched, {0, 1, 9}, 10), (std::vector<ProcessId>{9}));
  EXPECT_EQ(pick(sched, {0, 1}, 10), (std::vector<ProcessId>{0}));  // wraps
}

TEST(RandomSingleSchedulerTest, AlwaysExactlyOneEnabledPick) {
  RandomSingleScheduler sched{support::Rng(42)};
  for (int i = 0; i < 100; ++i) {
    const std::vector<ProcessId> out = pick(sched, kEnabled);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(std::binary_search(kEnabled.begin(), kEnabled.end(), out[0]));
  }
}

TEST(RandomSingleSchedulerTest, EventuallyPicksEveryone) {
  RandomSingleScheduler sched{support::Rng(7)};
  std::set<ProcessId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(pick(sched, kEnabled)[0]);
  EXPECT_EQ(seen.size(), kEnabled.size());
}

TEST(RandomSubsetSchedulerTest, NeverEmptyAndAlwaysSubset) {
  RandomSubsetScheduler sched{support::Rng(99), 0.5};
  for (int i = 0; i < 200; ++i) {
    const std::vector<ProcessId> out = pick(sched, kEnabled);
    ASSERT_FALSE(out.empty());
    for (const ProcessId pid : out) {
      EXPECT_TRUE(
          std::binary_search(kEnabled.begin(), kEnabled.end(), pid));
    }
  }
}

TEST(RandomSubsetSchedulerTest, ExtremeProbabilities) {
  RandomSubsetScheduler never{support::Rng(1), 0.0};
  EXPECT_EQ(pick(never, kEnabled).size(), 1u);  // forced non-empty

  RandomSubsetScheduler always{support::Rng(1), 1.0};
  EXPECT_EQ(pick(always, kEnabled), kEnabled);
}

TEST(ConvoySchedulerTest, AlwaysPicksSmallestPid) {
  ConvoyScheduler sched;
  EXPECT_EQ(pick(sched, kEnabled), (std::vector<ProcessId>{0}));
}

TEST(SchedulerTest, PicksAddToTheForcedSet) {
  // The engine sets its forced picks in `chosen` first; a daemon only adds
  // bits to them.
  const std::vector<std::uint64_t> enabled = to_set({1, 65, 69}, 70);
  ConvoyScheduler convoy;
  std::vector<std::uint64_t> chosen = to_set({69}, 70);
  convoy.select(enabled, chosen);
  EXPECT_EQ(members(chosen), (std::vector<ProcessId>{1, 69}));

  // Coins that pick nobody still add one enabled process.
  RandomSubsetScheduler never{support::Rng(3), 0.0};
  chosen = to_set({69}, 70);
  never.select(enabled, chosen);
  const std::vector<ProcessId> out = members(chosen);
  EXPECT_TRUE(contains(chosen, 69));
  EXPECT_LE(out.size(), 2u);
  for (const ProcessId pid : out) EXPECT_TRUE(contains(enabled, pid));
}

/// 200 enabled sets over n = 70 processes (two bitset words), drawn from
/// one seeded stream: every fifth set holds a single process (alternately
/// one in the second word and one anywhere), the others hold each process
/// with a per-set probability between 0.05 and 0.95.
std::vector<std::vector<ProcessId>> enabled_stream() {
  constexpr std::size_t kN = 70;
  support::Rng rng(0x5EED5E75);
  std::vector<std::vector<ProcessId>> sets;
  for (int i = 0; i < 200; ++i) {
    std::vector<ProcessId> set;
    if (i % 10 == 0) {
      set.push_back(64 + rng.below(kN - 64));
    } else if (i % 10 == 5) {
      set.push_back(rng.below(kN));
    } else {
      const double p = 0.05 + 0.9 * rng.unit();
      for (ProcessId pid = 0; pid < kN; ++pid) {
        if (rng.chance(p)) set.push_back(pid);
      }
      if (set.empty()) set.push_back(rng.below(kN));
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

/// FNV-1a over every pick of `sched` on the enabled stream, one
/// separator per step; `picks` counts them.
std::uint64_t picks_digest(Scheduler& sched, std::size_t& picks) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  picks = 0;
  for (const auto& enabled : enabled_stream()) {
    const std::vector<ProcessId> out = pick(sched, enabled, 70);
    for (const ProcessId pid : out) mix(pid);
    picks += out.size();
    mix(0xFFFF);
  }
  return h;
}

// The daemons' picks, pinned at fixed values: the step engine and the
// batch engine share these daemons, so a changed pick would move both
// engines alike and no cross-check between them could see it.
TEST(SchedulerGoldenTest, PicksOverASeededEnabledStreamAreFixed) {
  std::size_t picks = 0;
  RoundRobinScheduler round_robin;
  EXPECT_EQ(picks_digest(round_robin, picks), 0xbb0bfa6f42098a9aULL);
  EXPECT_EQ(picks, 200u);
  RandomSingleScheduler random_single{support::Rng(42)};
  EXPECT_EQ(picks_digest(random_single, picks), 0x2797e57bf0800ed8ULL);
  EXPECT_EQ(picks, 200u);
  RandomSubsetScheduler random_subset{support::Rng(99), 0.5};
  EXPECT_EQ(picks_digest(random_subset, picks), 0xf39087c184038839ULL);
  EXPECT_EQ(picks, 2985u);
  ConvoyScheduler convoy;
  EXPECT_EQ(picks_digest(convoy, picks), 0x05debebd1268f88bULL);
  EXPECT_EQ(picks, 200u);
}

TEST(SchedulerTest, Names) {
  EXPECT_STREQ(SynchronousScheduler{}.name(), "synchronous");
  EXPECT_STREQ(RoundRobinScheduler{}.name(), "round-robin");
  EXPECT_STREQ(ConvoyScheduler{}.name(), "convoy");
}

}  // namespace
}  // namespace hring::sim
