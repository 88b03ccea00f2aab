// Schedulers (daemons) for the step engines.
//
// A step γ ↦ γ' executes a non-empty subset of the processes enabled in γ
// (§II). The scheduler chooses that subset; the engine separately enforces
// the model's fairness assumption by force-including any process that has
// been continuously enabled for `kFairnessBound` steps (choose_step).
//
// Both step engines, sim::StepEngine and the campaigns' core::BatchRunner,
// hold the enabled set as a bitset and one sim::Scheduler by value, built
// from a (SchedulerKind, seed) pair. It embeds the five daemons below and
// dispatches to the one its kind names. A daemon sets its picks in a
// second bitset, and a randomized one draws its random numbers over the
// enabled processes in ascending pid order, so a (ring, seed) pair gives
// one execution on either engine. Every select is defined here, in the
// header, so it inlines into the engines' steps.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/process.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::sim {

/// A set of processes as a bitset: bit pid % 64 of word pid / 64 is pid's
/// membership. Engines size their sets once per ring (pid_set_words).
using PidSet = std::span<const std::uint64_t>;
using MutablePidSet = std::span<std::uint64_t>;

[[nodiscard]] constexpr std::size_t pid_set_words(std::size_t n) {
  return (n + 63) / 64;
}

[[nodiscard]] constexpr std::uint64_t pid_bit(ProcessId pid) {
  return std::uint64_t{1} << (pid % 64);
}

[[nodiscard]] inline bool contains(PidSet set, ProcessId pid) {
  return (set[pid / 64] & pid_bit(pid)) != 0;
}

/// Calls f(pid) for every member of `set`, in ascending pid order. Each
/// word is read once, before its members are visited.
template <class F>
void for_each_pid(PidSet set, F&& f) {
  for (std::size_t w = 0; w < set.size(); ++w) {
    for (std::uint64_t word = set[w]; word != 0; word &= word - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

/// The `index`-th smallest member of `set` (0-based; index < |set|).
[[nodiscard]] inline ProcessId nth_pid(PidSet set, std::uint64_t index) {
  for (std::size_t w = 0; w < set.size(); ++w) {
    std::uint64_t word = set[w];
    const auto count = static_cast<std::uint64_t>(std::popcount(word));
    if (index >= count) {
      index -= count;
      continue;
    }
    for (; index > 0; --index) word &= word - 1;
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  }
  HRING_ASSERT(false);
}

[[nodiscard]] inline std::uint64_t pid_count(PidSet set) {
  std::uint64_t count = 0;
  for (const std::uint64_t word : set) {
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

// Every daemon's select(enabled, chosen) sets in `chosen` a non-empty
// subset of `enabled` (which is non-empty; both sets have the same number
// of words). Bits already set in `chosen`, the engine's forced picks, stay
// set.

/// Every enabled process executes — the synchronous daemon of §III. Under
/// this scheduler, steps coincide with the rounds counted by Lemma 1.
class SynchronousScheduler {
 public:
  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    for (std::size_t w = 0; w < enabled.size(); ++w) chosen[w] |= enabled[w];
  }
};

/// Exactly one enabled process executes per step, scanned round-robin from
/// the pid after the previous pick (a fair sequential daemon).
class RoundRobinScheduler {
 public:
  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    // First enabled pid >= next_, else wrap to the smallest.
    for (std::size_t w = next_ / 64; w < enabled.size(); ++w) {
      std::uint64_t word = enabled[w];
      if (w == next_ / 64) word &= ~std::uint64_t{0} << (next_ % 64);
      if (word != 0) {
        pick(w * 64 + static_cast<std::size_t>(std::countr_zero(word)),
             chosen);
        return;
      }
    }
    pick(nth_pid(enabled, 0), chosen);
  }

 private:
  void pick(ProcessId pid, MutablePidSet chosen) {
    chosen[pid / 64] |= pid_bit(pid);
    next_ = pid + 1;
  }

  ProcessId next_ = 0;
};

/// Exactly one uniformly random enabled process executes per step.
class RandomSingleScheduler {
 public:
  explicit RandomSingleScheduler(support::Rng rng) : rng_(rng) {}
  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    const std::uint64_t count = pid_count(enabled);
    HRING_EXPECTS(count > 0);
    const ProcessId pid = nth_pid(enabled, rng_.below(count));
    chosen[pid / 64] |= pid_bit(pid);
  }

 private:
  support::Rng rng_;
};

/// Each enabled process executes independently with probability `p`; if the
/// coin flips select nobody, one random enabled process is executed so the
/// step is non-empty.
class RandomSubsetScheduler {
 public:
  RandomSubsetScheduler(support::Rng rng, double p) : rng_(rng), p_(p) {}
  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    bool picked = false;
    for (std::size_t w = 0; w < enabled.size(); ++w) {
      std::uint64_t picks = 0;
      for (std::uint64_t word = enabled[w]; word != 0; word &= word - 1) {
        if (rng_.chance(p_)) picks |= word & (~word + 1);  // lowest member
      }
      chosen[w] |= picks;
      picked = picked || picks != 0;
    }
    if (!picked) {
      const ProcessId pid = nth_pid(enabled, rng_.below(pid_count(enabled)));
      chosen[pid / 64] |= pid_bit(pid);
    }
  }

 private:
  support::Rng rng_;
  double p_;
};

/// Adversarial convoy daemon: starves the process with the largest pid
/// among the enabled (up to the engine's fairness forcing) by always
/// picking the smallest-pid enabled process. Stresses executions the
/// randomized daemons rarely produce.
class ConvoyScheduler {
 public:
  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    const ProcessId pid = nth_pid(enabled, 0);
    chosen[pid / 64] |= pid_bit(pid);
  }
};

enum class SchedulerKind : std::uint8_t {
  kSynchronous,
  kRoundRobin,
  kRandomSingle,
  kRandomSubset,
  kConvoy,
};

/// The daemon of one run: the daemon `kind` names, seeded with `seed` when
/// it is randomized (the same kind and seed replay the same schedule). The
/// random-subset daemon flips a fair coin per enabled process (p = 0.5).
/// A by-value type: engines re-arm it per run by assignment, with no
/// allocation.
class Scheduler {
 public:
  Scheduler(SchedulerKind kind, std::uint64_t seed)
      : kind_(kind),
        random_single_(support::Rng(seed)),
        random_subset_(support::Rng(seed), 0.5) {}

  // hring-lint: hot-path
  void select(PidSet enabled, MutablePidSet chosen) {
    switch (kind_) {
      case SchedulerKind::kSynchronous:
        synchronous_.select(enabled, chosen);
        return;
      case SchedulerKind::kRoundRobin:
        round_robin_.select(enabled, chosen);
        return;
      case SchedulerKind::kRandomSingle:
        random_single_.select(enabled, chosen);
        return;
      case SchedulerKind::kRandomSubset:
        random_subset_.select(enabled, chosen);
        return;
      case SchedulerKind::kConvoy:
        convoy_.select(enabled, chosen);
        return;
    }
    HRING_ASSERT(false);
  }

 private:
  SchedulerKind kind_;
  SynchronousScheduler synchronous_;
  RoundRobinScheduler round_robin_;
  RandomSingleScheduler random_single_;
  RandomSubsetScheduler random_subset_;
  ConvoyScheduler convoy_;
};

/// A process continuously enabled for this many steps is force-included
/// in the next step (the model's fair activation).
inline constexpr std::uint32_t kFairnessBound = 128;

/// One step's choice, shared by both step engines: `chosen` becomes the
/// forced set (the members of `enabled` aged kFairnessBound or more) with
/// the daemon's picks ORed in. Every enabled process ages by one step; the
/// engine resets each fired process's age to 0, so the enabled ones it
/// skipped end the step one older. `age` is indexed by pid.
// hring-lint: hot-path
inline void choose_step(Scheduler& scheduler, PidSet enabled,
                        std::span<std::uint32_t> age, MutablePidSet chosen) {
  for (std::size_t w = 0; w < enabled.size(); ++w) {
    std::uint64_t forced = 0;
    for (std::uint64_t word = enabled[w]; word != 0; word &= word - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      if (age[w * 64 + bit]++ >= kFairnessBound) {
        forced |= std::uint64_t{1} << bit;
      }
    }
    chosen[w] = forced;
  }
  scheduler.select(enabled, chosen);
}

}  // namespace hring::sim
