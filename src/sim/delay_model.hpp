// Message delays for the discrete-event engine.
//
// §II normalizes time so that the longest message delay (transmission plus
// processing at the receiver) is one time unit and local processing takes
// zero time. Accordingly every kind gives delays in (0, 1]; the worst-case
// kind (delay ≡ 1) realizes the bound the theorems are stated against.
//
// The event engine holds one sim::Delay by value, built from a
// (DelayKind, seed, n) triple, as the step engines hold sim::Scheduler:
// re-arming it per run is an assignment, with no allocation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/process.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::sim {

enum class DelayKind : std::uint8_t {
  /// Every message takes the full time unit — the worst case of the
  /// theorems' statements.
  kWorstCase,
  /// Each message draws its delay uniformly from [0.05, 1].
  kUniformRandom,
  /// The link out of p_(seed mod n) takes the full unit, every other
  /// link 0.05: an adversarial heterogeneity stressor.
  kSlowLink,
};

/// The delays of one run: the kind `kind` names, its random draws seeded
/// with `seed` (the same kind and seed replay the same delays) on a ring
/// of `n` >= 1 processes.
class Delay {
 public:
  Delay(DelayKind kind, std::uint64_t seed, std::size_t n)
      : kind_(kind), rng_(seed), slow_from_(seed % n) {}

  /// Delay, in (0, 1], of a message sent now on the link out of `from`.
  // hring-lint: hot-path
  [[nodiscard]] double of(ProcessId from) {
    switch (kind_) {
      case DelayKind::kWorstCase:
        return 1.0;
      case DelayKind::kUniformRandom:
        return kFast + (1.0 - kFast) * rng_.unit();
      case DelayKind::kSlowLink:
        return from == slow_from_ ? 1.0 : kFast;
    }
    HRING_ASSERT(false);
  }

 private:
  /// The shortest delay of the randomized and slow-link kinds.
  static constexpr double kFast = 0.05;

  DelayKind kind_;
  support::Rng rng_;
  ProcessId slow_from_;
};

}  // namespace hring::sim
