// Campaign throughput: the batched sweep engine against the scalar
// engine.
//
// Every row runs the same grid of small-n elections two ways:
//
//   scalar    — run_campaign with the scalar backend (CellQueue span
//               claiming, merged histograms, one recycled scalar engine
//               per worker);
//   batch     — run_campaign with the batch backend (one BatchRunner
//               ring per worker, restarted in place for each cell).
//
// Both derive per-cell seeds the same way, verify every terminal
// configuration and elect identical leaders; the batch backend's Stats
// are byte-identical to the scalar engine's (see
// tests/integration/batch_engine_test), so the comparison is pure
// execution-model overhead. The committed BENCH_sweep.json at the repo
// root records this bench's --json output on the reference machine (see
// docs/REPRODUCING.md for the schema and methodology).
#include <cstdint>
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/campaign.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

namespace {

using namespace hring;

constexpr std::uint64_t kCampaignSeed = 0x5EEDCA;

double campaign_eps(const ring::LabeledRing& ring,
                    const core::ElectionConfig& election, std::size_t cells,
                    bool check_true_leader, core::CampaignBackend backend) {
  core::SweepConfig config;
  config.election = election;
  config.source = core::RingSource::fixed(ring);
  config.cells = cells;
  config.seed = kCampaignSeed;
  config.backend = backend;
  config.check_true_leader = check_true_leader;
  const auto result = core::run_campaign(config);
  HRING_ENSURES(result.all_verified());
  return result.elections_per_second;
}

}  // namespace

int main(int argc, char** argv) {
  const auto format = benchutil::output_format(argc, argv);
  const bool smoke = benchutil::smoke_mode(argc, argv);

  benchutil::headline(format,
                      "campaign throughput: batch engine vs scalar engine\n"
                      "(identical cells, verified, same derived seeds)");

  support::Table table({"algo", "n", "cells", "scalar el/s", "batch el/s",
                        "batch/scalar"});

  struct Config {
    election::AlgorithmId algo;
    std::size_t n;
    std::size_t k;
  };
  const Config grid[] = {
      {election::AlgorithmId::kChangRoberts, 4, 1},
      {election::AlgorithmId::kChangRoberts, 8, 1},
      {election::AlgorithmId::kAk, 8, 3},
  };

  for (const Config& config : grid) {
    if (smoke && config.n > 4 &&
        config.algo == election::AlgorithmId::kChangRoberts) {
      continue;
    }
    const std::size_t cells =
        smoke ? 10'000
              : (config.algo == election::AlgorithmId::kChangRoberts
                     ? 500'000
                     : 100'000);

    support::Rng ring_rng(0xB5EE7 + config.n);
    ring::LabeledRing ring =
        config.k == 1 ? ring::distinct_ring(config.n, ring_rng)
                      : ring::LabeledRing::from_values({1, 2, 3, 2, 1, 3, 2, 1});
    core::ElectionConfig election;
    election.algorithm = {config.algo, config.k, false};
    const bool check_true =
        election::elects_true_leader(config.algo);

    const double scalar = campaign_eps(ring, election, cells, check_true,
                                       core::CampaignBackend::kScalar);
    const double batch = campaign_eps(ring, election, cells, check_true,
                                      core::CampaignBackend::kBatch);
    table.row()
        .cell(election::algorithm_name(config.algo))
        .cell(static_cast<std::uint64_t>(config.n))
        .cell(static_cast<std::uint64_t>(cells))
        .cell(static_cast<std::uint64_t>(scalar))
        .cell(static_cast<std::uint64_t>(batch))
        .cell(batch / scalar, 2);
  }

  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\nthe batch engine restarts one ring per worker in place for each "
      "cell (its processes,\nits links) and amortizes every "
      "per-cell fixed cost; the committed reference series lives\nin "
      "BENCH_sweep.json (schema: docs/REPRODUCING.md).\n");
  return 0;
}
