// Flight-recorder overhead: the 1.5× acceptance bound
// (docs/OBSERVABILITY.md).
//
// The bound compares wall-clock times of a thousand-worker election with
// the recorder attached and detached, so this binary's tests run alone
// (ctest RUN_SERIAL, tests/runtime/CMakeLists.txt): other n = 1000 cells
// running beside it would skew the ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "support/rng.hpp"

// Sanitizer builds slow each thread down enough that the thousand-worker
// overhead measurement stops meaning anything; the default-build suite
// and the CI runtime-smoke job cover it.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HRING_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define HRING_TEST_SANITIZED 1
#endif
#endif

namespace hring::runtime {
namespace {

using election::AlgorithmConfig;
using election::AlgorithmId;

TEST(RecorderOverheadTest, AttachedWithinBoundOfDetachedAtScale) {
#ifdef HRING_TEST_SANITIZED
  GTEST_SKIP() << "n=1000 threads is too slow under sanitizers; the "
                  "default build asserts the recorder-overhead bound";
#endif
  support::Rng rng(0xF18);
  const auto ring = ring::distinct_ring(1000, rng);
  const auto factory = election::make_factory(
      AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false});
  // Detached and attached runs alternate, best of three per mode: a slow
  // spell then slows both modes alike, not only whichever runs second, and
  // one scheduler hiccup shouldn't fail the bound.
  std::uint64_t detached = ~std::uint64_t{0};
  std::uint64_t attached = ~std::uint64_t{0};
  for (int i = 0; i < 3; ++i) {
    for (const bool attach : {false, true}) {
      InHostConfig config;
      config.flight_recorder = attach;
      const InHostResult result = run_inhost(ring, factory, config);
      EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
      std::uint64_t& best = attach ? attached : detached;
      best = std::min(best, result.elapsed_ns);
    }
  }
  EXPECT_LT(static_cast<double>(attached),
            1.5 * static_cast<double>(detached))
      << "attached=" << attached << "ns detached=" << detached << "ns";
}

}  // namespace
}  // namespace hring::runtime
