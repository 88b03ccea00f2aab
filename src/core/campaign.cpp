#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/cell_queue.hpp"
#include "core/verification.hpp"
#include "ring/generator.hpp"
#include "support/assert.hpp"
#include "telemetry/telemetry_observer.hpp"
#include "words/lyndon.hpp"

namespace hring::core {

const char* campaign_backend_name(CampaignBackend backend) {
  switch (backend) {
    case CampaignBackend::kAuto:
      return "auto";
    case CampaignBackend::kBatch:
      return "batch";
    case CampaignBackend::kScalar:
      return "scalar";
  }
  HRING_ASSERT(false);
}

RingSource RingSource::fixed(ring::LabeledRing r) {
  RingSource source;
  source.kind = Kind::kFixed;
  source.n = r.size();
  source.ring = std::move(r);
  return source;
}

RingSource RingSource::distinct(std::size_t n) {
  RingSource source;
  source.kind = Kind::kDistinct;
  source.n = n;
  return source;
}

RingSource RingSource::random_asymmetric(std::size_t n,
                                         std::size_t alphabet) {
  RingSource source;
  source.kind = Kind::kRandomAsymmetric;
  source.n = n;
  source.alphabet = alphabet;
  return source;
}

namespace {

/// Number of workers when the config leaves it at 0: the hardware
/// concurrency, at least 1.
std::size_t default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One ring for one cell, from the cell's derived ring seed alone.
ring::LabeledRing make_cell_ring(const RingSource& source,
                                 std::uint64_t ring_seed, std::size_t k) {
  support::Rng rng(ring_seed);
  switch (source.kind) {
    case RingSource::Kind::kFixed:
      return *source.ring;
    case RingSource::Kind::kDistinct:
      return ring::distinct_ring(source.n, rng);
    case RingSource::Kind::kRandomAsymmetric: {
      // Default alphabet: the CLI's asymmetric-sampling headroom.
      const std::size_t alphabet = source.alphabet != 0
                                       ? source.alphabet
                                       : (source.n + k - 1) / k + 2;
      auto r = ring::random_asymmetric_ring(source.n, k, alphabet, rng);
      if (!r.has_value()) {
        throw std::runtime_error(
            "campaign: could not sample an asymmetric ring (raise the "
            "alphabet)");
      }
      return std::move(*r);
    }
  }
  HRING_ASSERT(false);
}

/// Shared bucket edges of every campaign.* histogram: unit-width buckets
/// for values < 256 (exact quantiles for the common small-n range), then
/// power-of-two buckets to 2^40. Fixed layout = merge across workers.
std::vector<double> campaign_edges() {
  std::vector<double> edges;
  edges.reserve(257 + 32);
  for (std::size_t v = 0; v <= 256; ++v) {
    edges.push_back(static_cast<double>(v));
  }
  for (std::uint64_t p = 512; p <= (std::uint64_t{1} << 40); p *= 2) {
    edges.push_back(static_cast<double>(p));
  }
  return edges;
}

constexpr std::array<std::string_view, 8> kStatNames = {
    "steps",          "actions",
    "time_units",     "messages_sent",
    "message_bits_sent", "peak_space_bits",
    "peak_link_occupancy", "label_comparisons",
};

/// Per-worker accumulation: one registry, metric ids resolved once.
struct WorkerState {
  telemetry::MetricsRegistry registry;
  telemetry::CounterId cells_counter;
  telemetry::CounterId verify_fail_counter;
  std::array<telemetry::CounterId, 4> outcome_counters;
  std::array<telemetry::HistogramId, kStatNames.size()> stat_hists;

  explicit WorkerState(const std::vector<double>& edges) {
    cells_counter = registry.counter("campaign.cells");
    verify_fail_counter = registry.counter("campaign.verify_failures");
    for (std::size_t o = 0; o < outcome_counters.size(); ++o) {
      outcome_counters[o] = registry.counter(
          std::string("campaign.outcome.") +
          sim::outcome_name(static_cast<sim::Outcome>(o)));
    }
    for (std::size_t i = 0; i < kStatNames.size(); ++i) {
      stat_hists[i] = registry.histogram(
          std::string("campaign.") + std::string(kStatNames[i]), edges);
    }
  }

  void record_cell(const SweepConfig& config, std::size_t cell,
                   std::uint64_t election_seed, sim::Outcome outcome,
                   std::optional<sim::ProcessId> leader,
                   const sim::Stats& stats, bool verified) {
    registry.add(cells_counter);
    registry.add(outcome_counters[static_cast<std::size_t>(outcome)]);
    if (config.verify && !verified) registry.add(verify_fail_counter);
    const std::array<double, kStatNames.size()> values = {
        static_cast<double>(stats.steps),
        static_cast<double>(stats.actions),
        stats.time_units,
        static_cast<double>(stats.messages_sent),
        static_cast<double>(stats.message_bits_sent),
        static_cast<double>(stats.peak_space_bits),
        static_cast<double>(stats.peak_link_occupancy),
        static_cast<double>(stats.label_comparisons),
    };
    for (std::size_t i = 0; i < values.size(); ++i) {
      registry.record(stat_hists[i], values[i]);
    }
    if (config.cell_sink) {
      config.cell_sink(
          CellView{cell, election_seed, outcome, leader, verified, stats});
    }
  }
};

/// True-leader checking, with a fixed ring with rotational symmetry — no
/// true leader to speak of — opted out.
bool effective_check_true_leader(const SweepConfig& config) {
  const RingSource& source = config.source;
  if (!config.check_true_leader) return false;
  return source.kind != RingSource::Kind::kFixed ||
         !words::has_rotational_symmetry(source.ring->labels());
}

void run_scalar_cell(const SweepConfig& config, bool check_true,
                     std::size_t cell, WorkerState& ws) {
  const CellSeeds seeds = derive_cell_seeds(config.seed, cell);
  std::optional<ring::LabeledRing> generated;
  if (config.source.kind != RingSource::Kind::kFixed) {
    generated = make_cell_ring(config.source, seeds.ring_seed,
                               config.election.algorithm.k);
  }
  const ring::LabeledRing& ring =
      generated.has_value() ? *generated : *config.source.ring;

  ElectionConfig cell_config = config.election;
  cell_config.seed = seeds.election_seed;
  cell_config.monitor_spec = false;  // campaigns measure, they don't monitor
  cell_config.stop_on_violation = false;
  telemetry::TelemetryObserver observer;
  if (config.collect_telemetry) {
    cell_config.extra_observers.push_back(&observer);
  }

  const sim::RunResult result = run_election(ring, cell_config);
  bool verified = false;
  if (config.verify) {
    verified = verify_election(ring, result, check_true).ok;
  }
  ws.record_cell(config, cell, seeds.election_seed, result.outcome,
                 result.leader_pid(), result.stats, verified);
  if (config.collect_telemetry) ws.registry.merge(observer.metrics());
}

/// Calls run_cell(cell) for every cell this worker claims from `queue`.
template <class RunCell>
void run_claimed_cells(CellQueue& queue, const RunCell& run_cell) {
  for (CellQueue::Span span = queue.pop(); !span.empty(); span = queue.pop()) {
    for (std::size_t cell = span.begin; cell < span.end; ++cell) {
      run_cell(cell);
    }
  }
}

/// `prototype` is the process every node of the worker's ring starts as;
/// it carries the algorithm's parameters.
template <class Proc>
void run_batch_worker(const Proc& prototype, const SweepConfig& config,
                      bool check_true,
                      std::optional<sim::ProcessId> fixed_expected,
                      CellQueue& queue, WorkerState& ws) {
  BatchConfig batch_config;
  batch_config.n = config.source.ring_size();
  batch_config.scheduler = config.election.scheduler;
  batch_config.budget = config.election.budget;
  batch_config.verify = config.verify;
  BatchRunner<Proc> runner;
  runner.configure(batch_config, prototype);

  const bool fixed = config.source.kind == RingSource::Kind::kFixed;
  run_claimed_cells(queue, [&](std::size_t cell) {
    const CellSeeds seeds = derive_cell_seeds(config.seed, cell);
    BatchCellResult result;
    if (fixed) {
      result = runner.run(*config.source.ring, seeds.election_seed,
                          fixed_expected);
    } else {
      const ring::LabeledRing ring = make_cell_ring(
          config.source, seeds.ring_seed, config.election.algorithm.k);
      std::optional<sim::ProcessId> expected;
      if (check_true) expected = ring.true_leader();
      result = runner.run(ring, seeds.election_seed, expected);
    }
    ws.record_cell(config, cell, seeds.election_seed, result.outcome,
                   result.leader, *result.stats, result.verified);
  });
}

void run_scalar_worker(const SweepConfig& config, bool check_true,
                       CellQueue& queue, WorkerState& ws) {
  run_claimed_cells(queue, [&](std::size_t cell) {
    run_scalar_cell(config, check_true, cell, ws);
  });
}

}  // namespace

CampaignBackend resolve_backend(const SweepConfig& config) {
  const auto unsupported = [&]() -> const char* {
    if (config.election.engine != EngineKind::kStep) {
      return "the event engine";
    }
    if (!config.election.extra_observers.empty()) return "extra observers";
    if (config.collect_telemetry) return "per-cell telemetry";
    return nullptr;
  };
  switch (config.backend) {
    case CampaignBackend::kScalar:
      return CampaignBackend::kScalar;
    case CampaignBackend::kBatch:
      if (const char* why = unsupported()) {
        throw std::invalid_argument(
            std::string("campaign: the batch backend does not support ") +
            why + "; use backend=scalar");
      }
      return CampaignBackend::kBatch;
    case CampaignBackend::kAuto:
      return unsupported() == nullptr ? CampaignBackend::kBatch
                                      : CampaignBackend::kScalar;
  }
  HRING_ASSERT(false);
}

double CampaignResult::quantile(std::string_view stat, double q) const {
  const telemetry::Histogram* hist =
      metrics.find_histogram(std::string("campaign.") + std::string(stat));
  return hist == nullptr ? 0.0 : telemetry::histogram_quantile(*hist, q);
}

CampaignResult run_campaign(const SweepConfig& config) {
  HRING_EXPECTS(config.source.kind != RingSource::Kind::kFixed ||
                config.source.ring.has_value());
  const CampaignBackend backend = resolve_backend(config);
  std::size_t workers =
      config.workers == 0 ? default_worker_count() : config.workers;
  workers = std::min(workers, std::max<std::size_t>(config.cells, 1));
  const bool check_true = effective_check_true_leader(config);
  std::optional<sim::ProcessId> fixed_expected;
  if (check_true && config.source.kind == RingSource::Kind::kFixed) {
    fixed_expected = config.source.ring->true_leader();
  }

  const std::vector<double> edges = campaign_edges();
  std::vector<WorkerState> states;
  states.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) states.emplace_back(edges);

  CellQueue queue(config.cells, workers, config.queue_grain);

  const auto worker_fn = [&](WorkerState& ws) {
    if (backend == CampaignBackend::kScalar) {
      run_scalar_worker(config, check_true, queue, ws);
      return;
    }
    // The arena's prototype carries the algorithm's parameters, as
    // election::make_factory passes them.
    const election::AlgorithmConfig& algorithm = config.election.algorithm;
    const auto run = [&](const auto& prototype) {
      run_batch_worker(prototype, config, check_true, fixed_expected, queue,
                       ws);
    };
    switch (algorithm.id) {
      case election::AlgorithmId::kAk:
        run(election::AkProcess(0, sim::Label{}, algorithm.k));
        return;
      case election::AlgorithmId::kBk:
        run(election::BkProcess(0, sim::Label{}, algorithm.k,
                                algorithm.record_history));
        return;
      case election::AlgorithmId::kChangRoberts:
        run(election::ChangRobertsProcess(0, sim::Label{}));
        return;
      case election::AlgorithmId::kLeLann:
        run(election::LeLannProcess(0, sim::Label{}));
        return;
      case election::AlgorithmId::kPeterson:
        run(election::PetersonProcess(0, sim::Label{}));
        return;
    }
    HRING_ASSERT(false);
  };

  const auto start = std::chrono::steady_clock::now();
  if (workers == 1) {
    worker_fn(states[0]);
  } else {
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          worker_fn(states[w]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);

  CampaignResult result;
  result.cells = config.cells;
  result.workers = workers;
  result.backend = backend;
  for (const WorkerState& ws : states) result.metrics.merge(ws.registry);
  for (std::size_t o = 0; o < result.outcome_counts.size(); ++o) {
    const telemetry::Counter* counter = result.metrics.find_counter(
        std::string("campaign.outcome.") +
        sim::outcome_name(static_cast<sim::Outcome>(o)));
    result.outcome_counts[o] = counter == nullptr ? 0 : counter->value;
  }
  if (const telemetry::Counter* fails =
          result.metrics.find_counter("campaign.verify_failures")) {
    result.verify_failures = fails->value;
  }
  result.elapsed_seconds = elapsed.count();
  result.elections_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.cells) / result.elapsed_seconds
          : 0.0;
  return result;
}

}  // namespace hring::core
