// Campaign semantics: worker-count and queue-grain invariance, the
// one-seed determinism contract, backend resolution, cell streaming and
// exception propagation out of the workers.
#include <atomic>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "election/algorithm.hpp"
#include "support/json.hpp"

namespace hring {
namespace {

using core::CampaignBackend;
using core::SweepConfig;
using election::AlgorithmId;

std::string registry_json(const telemetry::MetricsRegistry& registry) {
  std::ostringstream out;
  {
    support::JsonWriter json(out);
    registry.to_json(json);
  }
  return out.str();
}

SweepConfig ak_campaign() {
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kAk, 2, false};
  config.election.scheduler = core::SchedulerKind::kRandomSubset;
  config.source = core::RingSource::random_asymmetric(6);
  config.cells = 32;
  config.seed = 0xCA4FA16;
  config.check_true_leader = true;
  return config;
}

TEST(CampaignTest, MergedResultIsInvariantUnderWorkerCount) {
  // The merged registry aggregates integer-valued Stats; double sums of
  // integers are exact far below 2^53, so any worker count must produce
  // the same document, bit for bit.
  for (const auto backend :
       {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
    SweepConfig config = ak_campaign();
    config.backend = backend;

    config.workers = 1;
    const auto one = core::run_campaign(config);
    const std::string one_json = registry_json(one.metrics);

    for (const std::size_t workers : {2u, 4u}) {
      config.workers = workers;
      const auto many = core::run_campaign(config);
      EXPECT_EQ(many.workers, workers);
      EXPECT_EQ(registry_json(many.metrics), one_json)
          << core::campaign_backend_name(backend) << " workers=" << workers;
      EXPECT_EQ(many.outcome_counts, one.outcome_counts);
      EXPECT_EQ(many.verify_failures, one.verify_failures);
    }
    EXPECT_EQ(one.outcome_count(sim::Outcome::kTerminated), config.cells);
    EXPECT_TRUE(one.all_verified());
  }
}

TEST(CampaignTest, MergedResultIsInvariantUnderGrainAndWorkers) {
  SweepConfig config = ak_campaign();
  config.backend = CampaignBackend::kBatch;
  config.workers = 2;
  const auto reference = core::run_campaign(config);
  const std::string reference_json = registry_json(reference.metrics);

  // One cell per claim, the automatic grain (0), and the whole campaign as
  // one claim (every other worker then idles).
  const std::size_t grains[] = {1, 0, config.cells};
  for (const std::size_t grain : grains) {
    for (const std::size_t workers : {1u, 2u, 3u}) {
      config.queue_grain = grain;
      config.workers = workers;
      const auto run = core::run_campaign(config);
      EXPECT_EQ(registry_json(run.metrics), reference_json)
          << "grain=" << grain << " workers=" << workers;
    }
  }
}

/// FNV-1a over every field of every cell's Stats, in cell order.
std::uint64_t stats_digest(const std::vector<sim::Stats>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const sim::Stats& s : cells) {
    mix(s.steps);
    mix(s.actions);
    mix(std::bit_cast<std::uint64_t>(s.time_units));
    mix(s.messages_sent);
    mix(s.messages_received);
    for (const auto v : s.sent_by_process) mix(v);
    for (const auto v : s.received_by_process) mix(v);
    for (const auto v : s.sent_by_kind) mix(v);
    for (const auto v : s.received_by_kind) mix(v);
    mix(s.message_bits_sent);
    mix(s.peak_space_bits);
    mix(s.peak_link_occupancy);
    mix(s.label_comparisons);
    mix(s.faults_injected);
  }
  return h;
}

TEST(CampaignTest, PerCellStatsUnderEveryDaemonAreFixed) {
  // Both engines run the same daemons, so the batch-vs-scalar grid cannot
  // see a changed pick: these digests pin each daemon's A_2 and B_2
  // executions on 64 random asymmetric n = 8 rings at fixed values.
  struct Golden {
    core::SchedulerKind scheduler;
    std::uint64_t ak;
    std::uint64_t bk;
  };
  const Golden goldens[] = {
      {core::SchedulerKind::kSynchronous, 0x19ca5b520915b88dULL,
       0xa3ee8ad8f27240f7ULL},
      {core::SchedulerKind::kRoundRobin, 0xc42b7cf35c747d68ULL,
       0x471cfbae6a9d47b9ULL},
      {core::SchedulerKind::kRandomSingle, 0x92240d3c43ac1fc5ULL,
       0xd6603413f49faf49ULL},
      {core::SchedulerKind::kRandomSubset, 0xc85b692a1ca9befbULL,
       0x1815c97312b55ffaULL},
      {core::SchedulerKind::kConvoy, 0x25a7f9a9a6ee3af8ULL,
       0x5d8a719417aca76fULL},
  };
  for (const Golden& golden : goldens) {
    for (const AlgorithmId id : {AlgorithmId::kAk, AlgorithmId::kBk}) {
      for (const auto backend :
           {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
        SweepConfig config;
        config.election.algorithm = {id, 2, false};
        config.election.scheduler = golden.scheduler;
        config.source = core::RingSource::random_asymmetric(8);
        config.cells = 64;
        config.seed = 0x60D5EED;
        config.workers = 2;
        config.backend = backend;
        config.check_true_leader = true;
        std::vector<sim::Stats> cells(config.cells);
        config.cell_sink = [&cells](const core::CellView& view) {
          cells[view.cell] = view.stats;
        };
        const auto result = core::run_campaign(config);
        EXPECT_TRUE(result.all_verified());
        EXPECT_EQ(stats_digest(cells),
                  id == AlgorithmId::kAk ? golden.ak : golden.bk)
            << election::algorithm_name(id) << " "
            << core::scheduler_kind_name(golden.scheduler) << " "
            << core::campaign_backend_name(backend);
      }
    }
  }
}

TEST(CampaignTest, CampaignSeedChangesEveryCell) {
  SweepConfig config = ak_campaign();
  config.seed = 0x1;
  const auto a = core::run_campaign(config);
  config.seed = 0x2;
  const auto b = core::run_campaign(config);
  EXPECT_NE(registry_json(a.metrics), registry_json(b.metrics));
}

TEST(CampaignTest, CellsReplayInIsolationThroughRunElection) {
  // The one-seed convention: any cell of a fixed-ring campaign is
  // reproducible by run_election with the derived election seed.
  const auto ring = ring::LabeledRing::from_values({4, 1, 3, 2});
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  config.election.scheduler = core::SchedulerKind::kRandomSingle;
  config.source = core::RingSource::fixed(ring);
  config.cells = 10;
  config.seed = 0xDECADE;

  struct Captured {
    std::uint64_t seed = 0;
    sim::Stats stats;
  };
  std::vector<Captured> cells(config.cells);
  config.cell_sink = [&cells](const core::CellView& view) {
    cells[view.cell] = Captured{view.election_seed, view.stats};
  };
  (void)core::run_campaign(config);

  for (std::size_t cell = 0; cell < config.cells; ++cell) {
    const auto seeds = core::derive_cell_seeds(config.seed, cell);
    EXPECT_EQ(cells[cell].seed, seeds.election_seed);

    core::ElectionConfig replay = config.election;
    replay.seed = seeds.election_seed;
    replay.monitor_spec = false;  // campaigns measure, they don't monitor
    const auto result = core::run_election(ring, replay);
    EXPECT_EQ(result.stats, cells[cell].stats) << "cell " << cell;
  }
}

TEST(CampaignTest, SinkIsInvokedExactlyOncePerCell) {
  SweepConfig config = ak_campaign();
  config.cells = 50;
  config.workers = 4;
  std::atomic<std::size_t> calls{0};
  std::vector<std::atomic<std::uint32_t>> per_cell(config.cells);
  config.cell_sink = [&](const core::CellView& view) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ASSERT_LT(view.cell, per_cell.size());
    per_cell[view.cell].fetch_add(1, std::memory_order_relaxed);
  };
  (void)core::run_campaign(config);
  EXPECT_EQ(calls.load(), config.cells);
  for (std::size_t i = 0; i < per_cell.size(); ++i) {
    EXPECT_EQ(per_cell[i].load(), 1u) << "cell " << i;
  }
}

TEST(CampaignTest, SinkExceptionReachesTheCaller) {
  // A worker's first exception is rethrown on the caller, message intact,
  // whether the cells ran inline (one worker) or on a pool.
  for (const auto backend :
       {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
    for (const std::size_t workers : {1u, 4u}) {
      SweepConfig config = ak_campaign();
      config.backend = backend;
      config.workers = workers;
      config.cell_sink = [](const core::CellView& view) {
        if (view.cell == 7) throw std::runtime_error("sink boom");
      };
      try {
        (void)core::run_campaign(config);
        ADD_FAILURE() << core::campaign_backend_name(backend)
                      << " workers=" << workers << ": no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "sink boom")
            << core::campaign_backend_name(backend) << " workers="
            << workers;
      }
    }
  }
}

TEST(CampaignTest, ZeroWorkersResolvesToAtLeastOne) {
  SweepConfig config = ak_campaign();
  config.workers = 0;
  const auto result = core::run_campaign(config);
  EXPECT_GE(result.workers, 1u);
  EXPECT_LE(result.workers, config.cells);
  EXPECT_EQ(result.outcome_count(sim::Outcome::kTerminated), config.cells);
}

TEST(CampaignTest, QuantilesComeFromMergedStatsHistograms) {
  SweepConfig config = ak_campaign();
  const auto result = core::run_campaign(config);
  const double min_steps = result.quantile("steps", 0.0);
  const double max_steps = result.quantile("steps", 1.0);
  EXPECT_GE(min_steps, 1.0);
  EXPECT_GE(max_steps, min_steps);
  const auto* hist = result.metrics.find_histogram("campaign.steps");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), config.cells);
  EXPECT_DOUBLE_EQ(hist->min(), min_steps);
  EXPECT_DOUBLE_EQ(hist->max(), max_steps);
}

TEST(CampaignTest, BackendResolution) {
  SweepConfig config = ak_campaign();
  EXPECT_EQ(core::resolve_backend(config), CampaignBackend::kBatch);

  // Every algorithm runs batched on the step engine.
  for (const AlgorithmId id : election::all_algorithms()) {
    SweepConfig algorithm = config;
    algorithm.election.algorithm.id = id;
    EXPECT_EQ(core::resolve_backend(algorithm), CampaignBackend::kBatch)
        << election::algorithm_name(id);
  }

  // The event engine falls back to scalar, and so does per-cell telemetry
  // collection.
  SweepConfig event = config;
  event.election.engine = core::EngineKind::kEvent;
  EXPECT_EQ(core::resolve_backend(event), CampaignBackend::kScalar);
  SweepConfig telemetry = config;
  telemetry.collect_telemetry = true;
  EXPECT_EQ(core::resolve_backend(telemetry), CampaignBackend::kScalar);

  // Requesting the batch backend outside its coverage is an error.
  event.backend = CampaignBackend::kBatch;
  EXPECT_THROW((void)core::resolve_backend(event), std::invalid_argument);
  EXPECT_THROW((void)core::run_campaign(event), std::invalid_argument);
}

TEST(CampaignTest, SymmetricFixedRingFailsVerificationWithoutAbort) {
  // 1.2.1.2 has rotational symmetry, so it has no true leader: the
  // true-leader check opts out, and A_2's two leaders are counted as
  // verification failures on both backends.
  for (const auto backend :
       {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kAk, 2, false};
    config.source =
        core::RingSource::fixed(ring::LabeledRing::from_values({1, 2, 1, 2}));
    config.cells = 4;
    config.check_true_leader = true;
    config.backend = backend;
    const auto result = core::run_campaign(config);
    EXPECT_EQ(result.backend, backend);
    EXPECT_EQ(result.verify_failures, config.cells)
        << core::campaign_backend_name(backend);
  }
}

TEST(CampaignTest, ScalarFallbackRunsUncoveredAlgorithms) {
  // The batch engine covers every algorithm on the step engine; the event
  // engine is what it leaves to the scalar backend.
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kPeterson, 1, false};
  config.election.engine = core::EngineKind::kEvent;
  config.source = core::RingSource::distinct(5);
  config.cells = 8;
  config.seed = 0xFA11BAC;
  const auto result = core::run_campaign(config);
  EXPECT_EQ(result.backend, CampaignBackend::kScalar);
  EXPECT_EQ(result.outcome_count(sim::Outcome::kTerminated), config.cells);
  EXPECT_TRUE(result.all_verified());
}

}  // namespace
}  // namespace hring
