// The batch engine's correctness obligation: byte-identical per-cell
// Stats against the scalar StepEngine for every covered configuration.
//
// A campaign is run twice over the same cell grid — once on the batch
// backend (each worker restarts one ring for cell after cell) and once on
// the scalar backend — and every per-cell field is compared, including
// the full sim::Stats (defaulted operator==, so any divergence in steps,
// actions, message/bit accounting, space peaks or label-comparison counts
// fails the grid cell that produced it).
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "election/algorithm.hpp"
#include "sim/run_result.hpp"

namespace hring {
namespace {

using core::CampaignBackend;
using core::SweepConfig;
using election::AlgorithmId;

struct CellRecord {
  std::uint64_t election_seed = 0;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  sim::Stats stats;
};

std::vector<CellRecord> run_cells(SweepConfig config, CampaignBackend backend,
                                  std::size_t workers) {
  config.backend = backend;
  config.workers = workers;
  std::vector<CellRecord> out(config.cells);
  config.cell_sink = [&out](const core::CellView& view) {
    out[view.cell] = CellRecord{view.election_seed, view.outcome, view.leader,
                                view.verified, view.stats};
  };
  const auto result = core::run_campaign(config);
  EXPECT_EQ(result.backend, backend);
  EXPECT_EQ(result.cells, config.cells);
  return out;
}

void expect_identical(const std::vector<CellRecord>& batch,
                      const std::vector<CellRecord>& scalar,
                      const std::string& where) {
  ASSERT_EQ(batch.size(), scalar.size()) << where;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string at = where + " cell " + std::to_string(i);
    EXPECT_EQ(batch[i].election_seed, scalar[i].election_seed) << at;
    EXPECT_EQ(batch[i].outcome, scalar[i].outcome) << at;
    EXPECT_EQ(batch[i].leader, scalar[i].leader) << at;
    EXPECT_EQ(batch[i].verified, scalar[i].verified) << at;
    EXPECT_EQ(batch[i].stats, scalar[i].stats) << at << " (Stats diverged)";
  }
}

constexpr core::SchedulerKind kAllSchedulers[] = {
    core::SchedulerKind::kSynchronous,  core::SchedulerKind::kRoundRobin,
    core::SchedulerKind::kRandomSingle, core::SchedulerKind::kRandomSubset,
    core::SchedulerKind::kConvoy,
};

TEST(BatchEngineCrossCheck, AkGridMatchesScalarEngine) {
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t n = 2; n <= 8; ++n) {
      for (const auto scheduler : kAllSchedulers) {
        SweepConfig config;
        config.election.algorithm = {AlgorithmId::kAk, k, false};
        config.election.scheduler = scheduler;
        config.source = core::RingSource::random_asymmetric(n);
        config.cells = 5;
        config.seed = 0xA5EED + 1000 * k + 10 * n +
                      static_cast<std::uint64_t>(scheduler);
        config.check_true_leader = true;

        const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
        const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
        expect_identical(batch, scalar,
                         "Ak k=" + std::to_string(k) + " n=" +
                             std::to_string(n) + " sched=" +
                             core::scheduler_kind_name(scheduler));
        for (const auto& cell : batch) {
          EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
          EXPECT_TRUE(cell.verified);
        }
      }
    }
  }
}

TEST(BatchEngineCrossCheck, ChangRobertsGridMatchesScalarEngine) {
  for (std::size_t n = 2; n <= 8; ++n) {
    for (const auto scheduler : kAllSchedulers) {
      SweepConfig config;
      config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
      config.election.scheduler = scheduler;
      config.source = core::RingSource::distinct(n);
      config.cells = 5;
      config.seed = 0xC5EED + 10 * n + static_cast<std::uint64_t>(scheduler);

      const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
      const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
      expect_identical(batch, scalar,
                       "CR n=" + std::to_string(n) + " sched=" +
                           core::scheduler_kind_name(scheduler));
      for (const auto& cell : batch) {
        EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
        EXPECT_TRUE(cell.verified);
      }
    }
  }
}

TEST(BatchEngineCrossCheck, BkGridMatchesScalarEngine) {
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t n = 2; n <= 8; ++n) {
      for (const auto scheduler : kAllSchedulers) {
        SweepConfig config;
        config.election.algorithm = {AlgorithmId::kBk, k, false};
        config.election.scheduler = scheduler;
        config.source = core::RingSource::random_asymmetric(n);
        config.cells = 5;
        config.seed = 0xB5EED + 1000 * k + 10 * n +
                      static_cast<std::uint64_t>(scheduler);
        config.check_true_leader = true;

        const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
        const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
        expect_identical(batch, scalar,
                         "Bk k=" + std::to_string(k) + " n=" +
                             std::to_string(n) + " sched=" +
                             core::scheduler_kind_name(scheduler));
        for (const auto& cell : batch) {
          EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
          EXPECT_TRUE(cell.verified);
        }
      }
    }
  }
}

/// The identified-ring baselines on distinct(n), n = 2..8, every daemon.
void expect_distinct_grid_matches(AlgorithmId id, std::uint64_t seed) {
  for (std::size_t n = 2; n <= 8; ++n) {
    for (const auto scheduler : kAllSchedulers) {
      SweepConfig config;
      config.election.algorithm = {id, 1, false};
      config.election.scheduler = scheduler;
      config.source = core::RingSource::distinct(n);
      config.cells = 5;
      config.seed = seed + 10 * n + static_cast<std::uint64_t>(scheduler);

      const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
      const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
      expect_identical(batch, scalar,
                       std::string(election::algorithm_name(id)) +
                           " n=" + std::to_string(n) + " sched=" +
                           core::scheduler_kind_name(scheduler));
      for (const auto& cell : batch) {
        EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
        EXPECT_TRUE(cell.verified);
      }
    }
  }
}

TEST(BatchEngineCrossCheck, LeLannGridMatchesScalarEngine) {
  expect_distinct_grid_matches(AlgorithmId::kLeLann, 0x11EED);
}

TEST(BatchEngineCrossCheck, PetersonGridMatchesScalarEngine) {
  expect_distinct_grid_matches(AlgorithmId::kPeterson, 0x9E7ED);
}

TEST(BatchEngineCrossCheck, RingsWiderThanOneBitsetWordMatchScalarEngine) {
  // n = 70 spans two words of the enabled set; three cells on one worker
  // also restart the ring over the multi-word layout. B_k under the
  // convoy daemon starves nodes past the fairness bound here, so this is
  // also the grid's case of forced picks.
  const election::AlgorithmConfig algorithms[] = {
      {AlgorithmId::kChangRoberts, 1, false},
      {AlgorithmId::kBk, 1, false},
  };
  for (const auto& algorithm : algorithms) {
    for (const auto scheduler : kAllSchedulers) {
      SweepConfig config;
      config.election.algorithm = algorithm;
      config.election.scheduler = scheduler;
      config.source = core::RingSource::distinct(70);
      config.cells = 3;
      config.seed = 0x70EED + static_cast<std::uint64_t>(scheduler);

      const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
      const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
      expect_identical(batch, scalar,
                       std::string(election::algorithm_name(algorithm.id)) +
                           " n=70 sched=" +
                           core::scheduler_kind_name(scheduler));
      for (const auto& cell : batch) {
        EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
        EXPECT_TRUE(cell.verified);
      }
    }
  }
}

TEST(BatchEngineCrossCheck, BudgetExhaustionMatchesScalarEngine) {
  // A budget that truncates mid-election must cut both engines at the
  // same step with the same partial Stats.
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  config.election.scheduler = core::SchedulerKind::kRandomSingle;
  config.election.budget = 3;
  config.source = core::RingSource::distinct(6);
  config.cells = 8;
  config.seed = 0xB0D9ED;
  config.verify = false;  // truncated runs have no terminal state to check

  const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
  const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
  expect_identical(batch, scalar, "budget=3");
  for (const auto& cell : batch) {
    EXPECT_EQ(cell.outcome, sim::Outcome::kBudgetExhausted);
    EXPECT_EQ(cell.stats.steps, 3u);
  }
}

TEST(BatchEngineCrossCheck, TruncatedSlotsRecycleCleanly) {
  // Every cell after the first starts on the ring a truncated cell left
  // mid-election, with grown strings, queued tokens and half-set spec
  // variables. Restarting it must leave no trace of that run.
  for (const std::uint64_t budget : {3U, 12U, 20U}) {
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kAk, 2, false};
    config.election.scheduler = core::SchedulerKind::kRandomSubset;
    config.election.budget = budget;
    config.source = core::RingSource::random_asymmetric(6);
    config.cells = 8;
    config.seed = 0x7E5C + budget;
    config.verify = false;  // truncated runs have no terminal state to check

    const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
    const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
    expect_identical(batch, scalar, "budget=" + std::to_string(budget));
    for (const auto& cell : batch) {
      EXPECT_EQ(cell.outcome, sim::Outcome::kBudgetExhausted);
      EXPECT_EQ(cell.stats.steps, budget);
    }
  }
}

TEST(BatchEngineCrossCheck, BkTruncatedSlotsRecycleCleanly) {
  // As above for B_k: budgets that stop mid-phase leave guests, counters,
  // half-set phase state and queued barrier messages behind in the ring.
  for (const std::uint64_t budget : {3U, 12U, 40U, 90U}) {
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kBk, 2, false};
    config.election.scheduler = core::SchedulerKind::kRandomSubset;
    config.election.budget = budget;
    config.source = core::RingSource::random_asymmetric(6);
    config.cells = 8;
    config.seed = 0xB7E5C + budget;
    config.verify = false;  // truncated runs have no terminal state to check

    const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
    const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
    expect_identical(batch, scalar, "Bk budget=" + std::to_string(budget));
    for (const auto& cell : batch) {
      EXPECT_EQ(cell.outcome, sim::Outcome::kBudgetExhausted);
      EXPECT_EQ(cell.stats.steps, budget);
    }
  }
}

TEST(BatchEngineCrossCheck, FixedRingSourceMatchesScalarEngine) {
  const auto ring = ring::LabeledRing::from_values({2, 1, 3, 1, 2, 1});
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kAk, 3, false};
  config.election.scheduler = core::SchedulerKind::kRandomSubset;
  config.source = core::RingSource::fixed(ring);
  config.cells = 12;
  config.seed = 0xF15ED;
  config.check_true_leader = true;

  const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
  const auto scalar = run_cells(config, CampaignBackend::kScalar, 2);
  expect_identical(batch, scalar, "fixed ring");
}

}  // namespace
}  // namespace hring
