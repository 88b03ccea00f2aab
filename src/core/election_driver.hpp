// High-level driver: the library's main entry point.
//
// run_election() wires together a ring, an algorithm, an engine, a
// scheduler or delay kind, and the spec monitor, runs to completion, and
// returns the outcome plus statistics and any observed violations.
//
//   auto ring = hring::ring::LabeledRing::from_values({1, 2, 2});
//   hring::core::ElectionConfig config;
//   config.algorithm = {hring::election::AlgorithmId::kAk, /*k=*/2};
//   auto result = hring::core::run_election(ring, config);
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/delay_model.hpp"
#include "sim/observer.hpp"
#include "sim/run_result.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace hring::core {

enum class EngineKind : std::uint8_t {
  /// Configuration-step semantics with a scheduler (§II step model).
  kStep,
  /// Discrete-event timing with a delay model (§II normalized time).
  kEvent,
};

/// The step engine's daemons (sim/scheduler.hpp).
using sim::SchedulerKind;
/// The event engine's message delays (sim/delay_model.hpp).
using sim::DelayKind;

/// Each kind's one printed name, and the kind a name spells back (nullopt
/// for no kind), as election::algorithm_name and algorithm_from_name.
[[nodiscard]] const char* engine_kind_name(EngineKind kind);
[[nodiscard]] const char* scheduler_kind_name(SchedulerKind kind);
[[nodiscard]] const char* delay_kind_name(DelayKind kind);
[[nodiscard]] std::optional<EngineKind> engine_kind_from_name(
    std::string_view name);
[[nodiscard]] std::optional<SchedulerKind> scheduler_kind_from_name(
    std::string_view name);
[[nodiscard]] std::optional<DelayKind> delay_kind_from_name(
    std::string_view name);

struct ElectionConfig {
  election::AlgorithmConfig algorithm;
  EngineKind engine = EngineKind::kStep;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  DelayKind delay = DelayKind::kWorstCase;
  /// Seed for randomized schedulers and delays.
  std::uint64_t seed = 1;
  /// Step budget (step engine) / action budget (event engine).
  std::uint64_t budget = 10'000'000;
  /// Attach the §II spec monitor (cheap: O(n) per step).
  bool monitor_spec = true;
  /// Stop the run at the first observed spec violation instead of letting
  /// the execution continue (E2 keeps this on to report violation steps).
  bool stop_on_violation = true;
  /// Additional observers (not owned; may be nullptr).
  std::vector<sim::Observer*> extra_observers;
};

/// Runs one complete election. The returned RunResult carries outcome,
/// statistics, per-process final states and any spec violations.
[[nodiscard]] sim::RunResult run_election(const ring::LabeledRing& ring,
                                          const ElectionConfig& config);

/// Per-cell seeds derived from one campaign seed.
struct CellSeeds {
  /// Seeds the ring generator when the campaign draws a fresh ring per
  /// cell (RingSource kinds other than kFixed).
  std::uint64_t ring_seed = 0;
  /// Becomes ElectionConfig::seed for the cell (randomized schedulers
  /// and delays).
  std::uint64_t election_seed = 0;
};

/// The library's one seed convention: every replicated experiment —
/// campaigns (core/campaign.hpp), the CLI sweep, the grid benches — holds
/// a single campaign-level seed and derives each cell's seeds from
/// (campaign_seed, cell index) alone. Derivation is two draws from a
/// splitmix64 stream whose state mixes the index with an odd constant, so
/// per-cell seeds are decorrelated, any cell is reproducible in isolation
/// ("replay cell 17" needs only the campaign seed and 17), and results are
/// independent of worker count and execution order.
[[nodiscard]] inline CellSeeds derive_cell_seeds(std::uint64_t campaign_seed,
                                                 std::size_t cell) {
  std::uint64_t state =
      campaign_seed ^ (0xA0761D6478BD642FULL * (static_cast<std::uint64_t>(cell) + 1));
  CellSeeds seeds;
  seeds.ring_seed = support::splitmix64(state);
  seeds.election_seed = support::splitmix64(state);
  return seeds;
}

}  // namespace hring::core
