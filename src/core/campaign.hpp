// Campaigns: many independent elections as one first-class experiment.
//
// A campaign evaluates `cells` elections of one (algorithm, scheduler,
// ring-source) configuration, fans the cells out over a worker pool fed by
// a lock-free CellQueue, and aggregates every cell's Stats into merged
// percentile histograms plus a merged telemetry::MetricsRegistry. The CLI
// sweep and the grid benches are thin wrappers over run_campaign().
//
// Backends. Cells execute either on the scalar engine (run_election, one
// recycled StepEngine/EventEngine per worker thread) or on the batch
// engine (core/batch_engine.hpp, one recycled ring per worker, each cell
// stepped to completion before the next starts). The batch backend runs
// every algorithm on the step engine; kAuto picks it whenever it applies
// (no event engine, observers or per-cell telemetry) and the scalar
// engine otherwise, and both produce byte-identical per-cell Stats (the
// batch engine's correctness obligation —
// tests/integration/batch_engine_test).
//
// Campaigns measure; they do not monitor. run_election's SpecMonitor (and
// extra observers) exist for debugging single runs — a campaign forces
// monitor_spec off on every backend so the two backends see identical
// executions, and relies on terminal-state verification (`verify`)
// instead. Telemetry observers can still be attached per cell on the
// scalar backend via `collect_telemetry`.
//
// Determinism. Every cell derives its ring and election seeds from
// (SweepConfig::seed, cell index) alone — derive_cell_seeds in
// core/election_driver.hpp — so each cell is reproducible in isolation and
// the merged result is invariant under worker count, queue grain and
// scheduling of the queue (campaign histograms record integers, whose
// double sums stay exact far beyond any realistic campaign size).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "core/election_driver.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/run_result.hpp"
#include "telemetry/metrics.hpp"

namespace hring::core {

enum class CampaignBackend : std::uint8_t {
  /// Batch when the configuration supports it, scalar otherwise.
  kAuto,
  /// Batch engine; run_campaign throws std::invalid_argument if the
  /// configuration is outside its coverage (see resolve_backend).
  kBatch,
  /// Scalar engine for every cell.
  kScalar,
};

[[nodiscard]] const char* campaign_backend_name(CampaignBackend backend);

/// Where each cell's ring comes from. All kinds produce rings of one fixed
/// size (campaigns sweep seeds and instances, not n — sweep n by running
/// one campaign per size, as the benches do).
struct RingSource {
  enum class Kind : std::uint8_t {
    /// Every cell runs the same ring; only the schedule randomness varies.
    kFixed,
    /// Random permutation of the distinct labels 1..n per cell (K_1).
    kDistinct,
    /// Random asymmetric ring with multiplicity <= algorithm.k per cell
    /// (A ∩ K_k), via ring::random_asymmetric_ring.
    kRandomAsymmetric,
  };

  Kind kind = Kind::kDistinct;
  /// Ring size for the generated kinds (kFixed takes it from the ring).
  std::size_t n = 8;
  /// Label alphabet for kRandomAsymmetric; 0 picks the CLI's
  /// asymmetric-sampling alphabet.
  std::size_t alphabet = 0;
  /// The ring of kFixed.
  std::optional<ring::LabeledRing> ring;

  [[nodiscard]] static RingSource fixed(ring::LabeledRing r);
  [[nodiscard]] static RingSource distinct(std::size_t n);
  [[nodiscard]] static RingSource random_asymmetric(std::size_t n,
                                                    std::size_t alphabet = 0);

  [[nodiscard]] std::size_t ring_size() const {
    return kind == Kind::kFixed ? ring->size() : n;
  }
};

/// One completed cell, streamed to SweepConfig::cell_sink. `stats` is a
/// view into the executing worker's arena, valid only during the sink
/// call — copy what you keep.
struct CellView {
  std::size_t cell = 0;
  /// The cell's derived election seed (reproduce with run_election).
  std::uint64_t election_seed = 0;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  const sim::Stats& stats;
};

struct SweepConfig {
  /// Per-cell election template. `seed` is ignored (cells derive their own
  /// from the campaign seed); `monitor_spec` is forced off (see header
  /// comment); `extra_observers` force the scalar backend.
  ElectionConfig election;
  RingSource source;
  std::size_t cells = 16;
  /// Campaign seed — the only seed a campaign has (derive_cell_seeds).
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
  CampaignBackend backend = CampaignBackend::kAuto;
  /// Verify each terminal configuration (verify_election's checks).
  bool verify = true;
  /// Additionally require the elected process to be ring.true_leader().
  /// Only meaningful for sources whose rings are asymmetric; ignored for
  /// a kFixed ring with rotational symmetry.
  bool check_true_leader = false;
  /// Scalar backend only: attach a TelemetryObserver per cell and merge
  /// the per-run registries into CampaignResult::metrics (the CLI's
  /// --metrics-out semantics). Forces the scalar backend under kAuto.
  bool collect_telemetry = false;
  /// Cells per queue claim; 0 = auto (see CellQueue).
  std::size_t queue_grain = 0;
  /// Optional per-cell callback, invoked once per cell from the worker
  /// that ran it (concurrently for distinct cells — synchronize or write
  /// to disjoint state, e.g. index into a pre-sized vector).
  std::function<void(const CellView&)> cell_sink;
};

/// Merged campaign outcome: counts, throughput, and one histogram per
/// Stats field (name "campaign.<field>", unit-width buckets to 256 then
/// power-of-two buckets) inside `metrics`.
struct CampaignResult {
  std::size_t cells = 0;
  std::size_t workers = 0;
  /// The backend that actually ran (kAuto resolved).
  CampaignBackend backend = CampaignBackend::kScalar;
  /// Indexed by sim::Outcome's enumerators.
  std::array<std::uint64_t, 4> outcome_counts{};
  std::uint64_t verify_failures = 0;
  double elapsed_seconds = 0.0;
  double elections_per_second = 0.0;
  /// campaign.* histograms/counters, plus the merged per-run telemetry
  /// registries when collect_telemetry was set.
  telemetry::MetricsRegistry metrics;

  [[nodiscard]] std::uint64_t outcome_count(sim::Outcome outcome) const {
    return outcome_counts[static_cast<std::size_t>(outcome)];
  }
  [[nodiscard]] bool all_verified() const { return verify_failures == 0; }
  /// q-quantile of the per-cell distribution of a Stats field ("steps",
  /// "messages_sent", ...); exact for values < 256, interpolated above.
  [[nodiscard]] double quantile(std::string_view stat, double q) const;
};

/// The backend a config will run on: resolves kAuto, validates kBatch
/// (throws std::invalid_argument with the unsupported feature named).
[[nodiscard]] CampaignBackend resolve_backend(const SweepConfig& config);

/// Runs the campaign. Deterministic in everything but the timing fields.
/// The first exception thrown on a worker (a cell_sink's, say) is
/// rethrown here once every worker has stopped.
[[nodiscard]] CampaignResult run_campaign(const SweepConfig& config);

}  // namespace hring::core
