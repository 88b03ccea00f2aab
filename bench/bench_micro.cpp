// Experiment E10 — substrate microbenchmarks (google-benchmark).
//
// Covers the two ablation-worthy design decisions of DESIGN.md §4:
//  * incremental KMP border maintenance vs per-message recomputation of
//    srp (A_k evaluates Leader(σ) on every token);
//  * Booth's O(n) least rotation vs the naive O(n²) scan (true-leader
//    ground truth and the Lyndon check inside Leader(σ));
// plus end-to-end engine throughput for both engines.
#include <benchmark/benchmark.h>

#include "core/election_driver.hpp"
#include "core/model_checker.hpp"
#include "ring/generator.hpp"
#include "telemetry/telemetry_observer.hpp"
#include "tests/words/reference.hpp"
#include "tests/words/zfunction.hpp"
#include "words/lyndon.hpp"
#include "words/periodicity.hpp"

namespace {

using namespace hring;

words::LabelSequence random_sequence(std::size_t len, std::size_t alphabet,
                                     std::uint64_t seed) {
  support::Rng rng(seed);
  words::LabelSequence seq;
  seq.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    seq.emplace_back(rng.below(alphabet) + 1);
  }
  return seq;
}

// -- srp maintenance: incremental vs recompute-per-append -------------------

void BM_PeriodIncremental(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 4, 1);
  for (auto _ : state) {
    words::IncrementalPeriod inc;
    std::size_t sink = 0;
    for (const auto label : seq) {
      inc.push_back(label);
      sink += inc.period();  // A_k consults the period on every token
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeriodIncremental)->Range(64, 4096);

void BM_PeriodRecomputed(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 4, 1);
  for (auto _ : state) {
    words::LabelSequence prefix;
    std::size_t sink = 0;
    for (const auto label : seq) {
      prefix.push_back(label);
      sink += words::smallest_period(prefix);  // O(|σ|) every time
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeriodRecomputed)->Range(64, 4096);

// -- least rotation: Booth vs naive ------------------------------------------

void BM_BoothLeastRotation(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(words::least_rotation_index(seq));
  }
}
BENCHMARK(BM_BoothLeastRotation)->Range(64, 4096);

void BM_NaiveLeastRotation(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(words::least_rotation_index_naive(seq));
  }
}
BENCHMARK(BM_NaiveLeastRotation)->Range(64, 1024);

// -- Z-function vs border array (two periodicity backends) -------------------

void BM_BorderArray(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 3, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(words::border_array(seq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BorderArray)->Range(64, 4096);

void BM_ZArray(benchmark::State& state) {
  const auto seq =
      random_sequence(static_cast<std::size_t>(state.range(0)), 3, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(words::z_array(seq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZArray)->Range(64, 4096);

// -- exhaustive model checker -------------------------------------------------

void BM_ModelCheckAk122(benchmark::State& state) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  for (auto _ : state) {
    const auto report = core::check_all_schedules(
        ring, {election::AlgorithmId::kAk, 2, false});
    benchmark::DoNotOptimize(report.configurations);
  }
}
BENCHMARK(BM_ModelCheckAk122);

void BM_ModelCheckBkDistinct4(benchmark::State& state) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 2});
  for (auto _ : state) {
    const auto report = core::check_all_schedules(
        ring, {election::AlgorithmId::kBk, 1, false});
    benchmark::DoNotOptimize(report.configurations);
  }
}
BENCHMARK(BM_ModelCheckBkDistinct4);

// -- true leader -------------------------------------------------------------

void BM_TrueLeader(benchmark::State& state) {
  support::Rng rng(3);
  const auto ring = ring::random_asymmetric_ring(
      static_cast<std::size_t>(state.range(0)), 3,
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring->true_leader());
  }
}
BENCHMARK(BM_TrueLeader)->Range(64, 4096);

// -- end-to-end engine throughput --------------------------------------------

void BM_StepEngineAk(benchmark::State& state) {
  support::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kAk, 2, false};
    config.monitor_spec = false;  // pure engine cost
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StepEngineAk)->Range(8, 128);

void BM_EventEngineAk(benchmark::State& state) {
  support::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kAk, 2, false};
    config.engine = core::EngineKind::kEvent;
    config.monitor_spec = false;
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventEngineAk)->Range(8, 128);

// Telemetry cost: the same elections with a TelemetryObserver attached.
// Compare against BM_StepEngineAk / BM_EventEngineAk — the detached
// numbers must stay flat (no observer, no ActionEvent materialization)
// while attached throughput must stay within 2x.
void BM_StepEngineAkTelemetry(benchmark::State& state) {
  support::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  telemetry::TelemetryObserver telemetry_observer;
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kAk, 2, false};
    config.monitor_spec = false;
    config.extra_observers.push_back(&telemetry_observer);
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StepEngineAkTelemetry)->Range(8, 128);

void BM_EventEngineAkTelemetry(benchmark::State& state) {
  support::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  telemetry::TelemetryObserver telemetry_observer;
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kAk, 2, false};
    config.engine = core::EngineKind::kEvent;
    config.monitor_spec = false;
    config.extra_observers.push_back(&telemetry_observer);
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventEngineAkTelemetry)->Range(8, 128);

void BM_SpecMonitorOverheadAk(benchmark::State& state) {
  support::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kAk, 2, false};
    config.monitor_spec = true;  // the monitored counterpart
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpecMonitorOverheadAk)->Range(8, 128);

void BM_StepEngineBk(benchmark::State& state) {
  support::Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto ring = ring::random_asymmetric_ring(n, 2, n, rng);
  for (auto _ : state) {
    core::ElectionConfig config;
    config.algorithm = {election::AlgorithmId::kBk, 2, false};
    config.monitor_spec = false;
    const auto result = core::run_election(*ring, config);
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StepEngineBk)->Range(8, 64);

}  // namespace

BENCHMARK_MAIN();
