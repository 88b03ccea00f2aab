// Simulator ↔ in-host runtime conformance (runtime/conformance.hpp).
//
// The acceptance matrix from the roadmap: {A_k k=1..3, Chang-Roberts,
// B_k} × n ∈ {2..8}, each cell certified by the three-stage harness —
// reference simulation, real threaded run, per-link message histories
// and final states compared, reference schedule through the full spec
// auditor. An injected frame must be named as the first divergent
// message of its link. A final (sanitizer-skipped) case scales one cell
// to n = 1000 workers and checks the Theorem 2 space budget holds there
// too.
#include "runtime/conformance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/spec_audit.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_links.hpp"
#include "support/rng.hpp"

// Sanitizer builds slow each thread down enough that thousand-worker
// rings stop being a smoke test; the CI runtime-smoke job covers the
// sanitized n=1000 path through the CLI instead.
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

struct ConformanceCase {
  AlgorithmId id;
  std::size_t k;
};

class ConformanceMatrixTest
    : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(ConformanceMatrixTest, SimulatorAndRuntimeAgree) {
  const ConformanceCase param = GetParam();
  support::Rng rng(0x5EED5);
  for (std::size_t n = 2; n <= 8; ++n) {
    // Distinct labels: the ring is in K_1 ⊆ K_k, so one family serves
    // every algorithm in the matrix.
    const auto ring = ring::distinct_ring(n, rng);
    const auto report = check_conformance(
        ring, AlgorithmConfig{param.id, param.k, false});
    EXPECT_TRUE(report.ok())
        << algorithm_name(param.id) << " k=" << param.k << " n=" << n
        << ": " << report.summary();
  }
}

// gtest prints a parameter's raw bytes, padding included, into the test
// name. A static array has its padding zero-filled, so the names are the
// same on every run; temporaries built on the stack carried stack garbage.
constexpr ConformanceCase kConformanceCases[] = {
    {AlgorithmId::kAk, 1},           {AlgorithmId::kAk, 2},
    {AlgorithmId::kAk, 3},           {AlgorithmId::kChangRoberts, 1},
    {AlgorithmId::kBk, 2},
};

INSTANTIATE_TEST_SUITE_P(
    AcceptanceMatrix, ConformanceMatrixTest,
    ::testing::ValuesIn(kConformanceCases),
    [](const ::testing::TestParamInfo<ConformanceCase>& param_info) {
      return std::string(algorithm_name(param_info.param.id)) + "_k" +
             std::to_string(param_info.param.k);
    });

// -- The n = 1000 scale cell ------------------------------------------------
// Full three-stage conformance at 1000 workers uses Chang-Roberts: its
// O(n log n) expected messages keep the strict spec audit (which hashes
// every process state on every firing) tractable. The paper algorithms
// at n = 1000 perform ~2.5M firings — their Theorem 2/4 budgets are
// checked directly against the real run below instead, since auditing
// 2.5M firings is hours of single-core work.

TEST(ConformanceScaleTest, ThousandWorkerRingConformsEndToEnd) {
#ifdef HRING_TEST_SANITIZED
  GTEST_SKIP() << "n=1000 threads is too slow under sanitizers; the CI "
                  "runtime-smoke job covers the sanitized scale run";
#endif
  support::Rng rng(0xB16B00);
  const auto ring = ring::distinct_ring(1000, rng);
  const auto report = check_conformance(
      ring, AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.inhost.processes.size(), 1000u);
}

struct ScaleCase {
  AlgorithmId id;
  std::size_t k;
  std::size_t n;
};

class ScaleBudgetTest : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ScaleBudgetTest, ScaleElectionStaysInPaperBudget) {
#ifdef HRING_TEST_SANITIZED
  GTEST_SKIP() << "n=1000 threads is too slow under sanitizers; the CI "
                  "runtime-smoke job covers the sanitized scale run";
#endif
  const ScaleCase param = GetParam();
  support::Rng rng(0xB16B01);
  const auto ring = ring::distinct_ring(param.n, rng);
  const auto result = run_inhost(
      ring, election::make_factory({param.id, param.k, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(),
            std::optional<sim::ProcessId>(ring.true_leader()));
  EXPECT_EQ(result.messages_sent, result.messages_received);
  EXPECT_EQ(result.wire_rejects, 0u);
  const auto bound = core::paper_space_bound_bits(
      {param.id, param.k, false}, ring.size(), ring.label_bits());
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(result.peak_space_bits, *bound);
}

// A_k runs at the full n = 1000: its firings spread across many
// simultaneously-enabled processes, so workers batch work per timeslice
// (~15 s single-core). B_k's ≈2n² firings happen one token hop at a
// time — at n = 1000 nearly every firing pays a futex wake plus a
// context switch among a thousand sleepers, minutes of wall clock — so
// its Theorem 4 budget is checked at n = 192 instead (same code paths,
// seconds not minutes). A static array, for stable test names (see
// kConformanceCases).
constexpr ScaleCase kScaleCases[] = {
    {AlgorithmId::kAk, 1, 1000},
    {AlgorithmId::kBk, 2, 192},
};

INSTANTIATE_TEST_SUITE_P(
    PaperAlgorithms, ScaleBudgetTest, ::testing::ValuesIn(kScaleCases),
    [](const ::testing::TestParamInfo<ScaleCase>& param_info) {
      return std::string(algorithm_name(param_info.param.id)) + "_k" +
             std::to_string(param_info.param.k) + "_n" +
             std::to_string(param_info.param.n);
    });

TEST(ConformanceDivergenceTest, InjectedFrameIsNamedByLinkAndIndex) {
  // One well-formed extra <TOKEN,1> queued on p0->p1 before the run: p1
  // consumes it first, so its in-link history departs from the
  // reference's at message 0.
  const auto ring = ring::LabeledRing::from_values({5, 6, 7, 8});
  ConformanceConfig config;
  config.inhost.pre_start_poke = [](InHostLinks& links) {
    links.send(0, sim::Message::token(sim::Label(1)));
  };
  const auto report = check_conformance(
      ring, AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false}, config);
  EXPECT_FALSE(report.ok());
  const std::string expected =
      "[link] p0->p1 message 0: expected <TOKEN,5>, observed <TOKEN,1>";
  EXPECT_NE(std::find(report.divergences.begin(), report.divergences.end(),
                      expected),
            report.divergences.end())
      << report.summary();
  // The other links carry the reference's messages.
  for (const std::string& line : report.divergences) {
    EXPECT_EQ(line.rfind("[link] p1->", 0), std::string::npos) << line;
    EXPECT_EQ(line.rfind("[link] p2->", 0), std::string::npos) << line;
    EXPECT_EQ(line.rfind("[link] p3->", 0), std::string::npos) << line;
  }
}

TEST(ConformanceReportTest, SummaryNamesDivergences) {
  support::Rng rng(0xFACE);
  const auto ring = ring::distinct_ring(4, rng);
  const auto report = check_conformance(
      ring, AlgorithmConfig{AlgorithmId::kBk, 2, false});
  ASSERT_TRUE(report.ok()) << report.summary();
  EXPECT_NE(report.summary().find("conformant"), std::string::npos);
  EXPECT_NE(report.summary().find("audit=ok"), std::string::npos);

  // A doctored report renders as divergent.
  ConformanceReport broken = report;
  broken.divergences.push_back("[leader] synthetic divergence");
  EXPECT_FALSE(broken.ok());
  EXPECT_NE(broken.summary().find("DIVERGENT(1)"), std::string::npos);
}

}  // namespace
}  // namespace hring::runtime
