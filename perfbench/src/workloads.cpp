#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "core/election_driver.hpp"
#include "core/model_checker.hpp"
#include "core/verification.hpp"
#include "ring/generator.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using hr::election::AlgorithmId;
using hr::telemetry::FlightEventKind;

/// Unit index of the warm-up op inside setup(): outside every index the
/// timed loop reaches, so warming up never pre-runs a timed input.
constexpr std::uint64_t kWarmupIndex = ~std::uint64_t{0};

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// -- sweep-ak / sweep-bk ----------------------------------------------------

/// What a traced campaign records per cell, from the cell sink.
struct CellRecord {
  bool seen = false;
  bool verified = false;
  std::uint64_t steps = 0;
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const SweepParams& params, Report& report)
      : params_(params), report_(report) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    (void)run(kWarmupIndex, false);
    untraced_wall_s_ = 0.0;
    untraced_cells_ = 0;
  }

  Unit run(std::uint64_t index, bool traced) override {
    hr::core::SweepConfig config = params_.config(unit_seed(seed_, index));
    std::vector<CellRecord> cells;
    if (traced) {
      cells.resize(params_.cells);
      // Workers call the sink concurrently for distinct cells: each
      // writes only its own pre-sized slot.
      config.cell_sink = [&cells](const hr::core::CellView& view) {
        CellRecord& record = cells[view.cell];
        record.seen = true;
        record.verified = view.verified;
        record.steps = view.stats.steps;
      };
    }
    const auto start = Clock::now();
    const hr::core::CampaignResult result = hr::core::run_campaign(config);
    Unit unit;
    unit.wall_s = seconds_since(start);
    unit.elections = params_.cells;
    const std::uint64_t terminated =
        result.outcome_count(hr::sim::Outcome::kTerminated);
    unit.failed = std::max<std::uint64_t>(result.verify_failures,
                                          params_.cells - terminated);
    if (result.cells != params_.cells) {
      report_.error("campaign ran " + std::to_string(result.cells) +
                    " cells, asked for " + std::to_string(params_.cells));
    }
    const hr::telemetry::Histogram* steps =
        result.metrics.find_histogram("campaign.steps");
    const hr::telemetry::Histogram* messages =
        result.metrics.find_histogram("campaign.messages_sent");
    if (steps == nullptr || messages == nullptr) {
      report_.error("campaign result lacks its step/message histograms");
      unit.failed = unit.elections;
      return unit;
    }
    if (params_.algorithm == AlgorithmId::kAk) check_theorem2(*steps, *messages);
    if (traced) check_sink(cells, result);
    if (unit.failed == 0) {
      unit.configurations = static_cast<std::uint64_t>(steps->sum());
    }
    if (!traced) {
      untraced_wall_s_ += unit.wall_s;
      untraced_cells_ += params_.cells;
    }
    return unit;
  }

  void describe(hr::support::JsonWriter& json) const override {
    json.key("algorithm").value(hr::election::algorithm_name(params_.algorithm));
    json.key("n").value(static_cast<std::uint64_t>(params_.n));
    json.key("k").value(static_cast<std::uint64_t>(params_.k));
    json.key("alphabet").value(static_cast<std::uint64_t>(params_.alphabet()));
    json.key("daemon").value(hr::core::scheduler_kind_name(params_.scheduler));
    json.key("backend").value(hr::core::campaign_backend_name(
        hr::core::resolve_backend(params_.config(0))));
    json.key("workers").value(static_cast<std::uint64_t>(params_.workers));
    json.key("cells_per_campaign")
        .value(static_cast<std::uint64_t>(params_.cells));
  }

  /// Model: a cell costs ring generation + true leader + the engine's
  /// election (the batch engine's per-election cost on sweep-ak, which
  /// includes verification; the step engine's plus verify on sweep-bk),
  /// spread over the workers. Measured: the untraced campaigns' wall per
  /// cell.
  [[nodiscard]] double residual(const LayerCosts& costs) const override {
    if (untraced_cells_ == 0) return 1.0;
    const double engine_us = params_.algorithm == AlgorithmId::kAk
                                 ? costs.batch_us_per_election
                                 : costs.sim_election_us + costs.verify_us;
    const double predicted_us =
        (costs.ring_gen_us + costs.true_leader_us + engine_us) /
        static_cast<double>(params_.workers);
    const double measured_us =
        untraced_wall_s_ * 1e6 / static_cast<double>(untraced_cells_);
    return 1.0 - predicted_us / measured_us;
  }

 private:
  /// Theorem 2 on every cell: time <= (2k+2)n (synchronous steps are
  /// time units) and messages <= n²(2k+1) + n. Histogram maxima are exact.
  void check_theorem2(const hr::telemetry::Histogram& steps,
                      const hr::telemetry::Histogram& messages) {
    const double n = static_cast<double>(params_.n);
    const double k = static_cast<double>(params_.k);
    if (steps.max() > (2 * k + 2) * n) {
      report_.error("A_k exceeded Theorem 2's time bound: " +
                    std::to_string(steps.max()) + " steps");
    }
    if (messages.max() > n * n * (2 * k + 1) + n) {
      report_.error("A_k exceeded Theorem 2's message bound: " +
                    std::to_string(messages.max()) + " messages");
    }
  }

  /// The sink must have seen every cell once, and agree with the merged
  /// result on verification and totals.
  void check_sink(const std::vector<CellRecord>& cells,
                  const hr::core::CampaignResult& result) {
    std::uint64_t unverified = 0;
    double steps = 0.0;
    for (const CellRecord& cell : cells) {
      if (!cell.seen) {
        report_.error("campaign cell sink missed a cell");
        return;
      }
      if (!cell.verified) ++unverified;
      steps += static_cast<double>(cell.steps);
    }
    const hr::telemetry::Histogram* hist =
        result.metrics.find_histogram("campaign.steps");
    if (unverified != result.verify_failures || hist == nullptr ||
        steps != hist->sum()) {
      report_.error("campaign cell sink disagrees with the merged result");
    }
  }

  SweepParams params_;
  Report& report_;
  std::uint64_t seed_ = 0;
  double untraced_wall_s_ = 0.0;
  std::uint64_t untraced_cells_ = 0;
};

// -- modelcheck -------------------------------------------------------------

struct CheckItem {
  hr::ring::LabeledRing ring;
  AlgorithmId algorithm;
};

class ModelCheckWorkload final : public Workload {
 public:
  explicit ModelCheckWorkload(Report& report) : report_(report) {}

  void setup(std::uint64_t seed) override {
    // One stratum per (family, algorithm), each in seeded order. The pass
    // interleaves the strata in proportion to their sizes, so the searches
    // a run gets through before its time is up always have the pass's mix.
    hr::support::Rng rng(seed);
    std::vector<std::pair<double, CheckItem>> keyed;
    std::optional<CheckItem> warmup;
    for (const Family& family : kModelCheckFamilies) {
      const auto rings = hr::ring::enumerate_rings(
          family.n, family.alphabet, /*asymmetric_only=*/true,
          /*canonical_only=*/true);
      if (!warmup.has_value()) warmup = CheckItem{rings.front(), AlgorithmId::kAk};
      for (const AlgorithmId id : {AlgorithmId::kAk, AlgorithmId::kBk}) {
        std::vector<CheckItem> stratum;
        for (const auto& r : rings) stratum.push_back({r, id});
        hr::support::shuffle(stratum, rng);
        const double offset = rng.unit();
        for (std::size_t i = 0; i < stratum.size(); ++i) {
          keyed.emplace_back((static_cast<double>(i) + offset) /
                                 static_cast<double>(stratum.size()),
                             std::move(stratum[i]));
        }
      }
    }
    std::stable_sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    items_.clear();
    for (auto& [key, item] : keyed) items_.push_back(std::move(item));
    // Warm up on a search that is the same for every seed.
    hr::core::ModelCheckReport check;
    (void)search(*warmup, check);
    // A run sets up with one seed only, so a slot keeps its search across
    // set-ups and its counts are checked across them too.
    first_counts_.resize(items_.size());
    traced_wall_s_ = 0.0;
    traced_snapshot_work_ = {};
  }

  Unit run(std::uint64_t index, bool traced) override {
    const std::size_t slot = static_cast<std::size_t>(index % items_.size());
    const CheckItem& item = items_[slot];
    hr::core::ModelCheckReport check;
    const Unit unit = search(item, check);

    // The search is deterministic: a repeat must reproduce its counts.
    const Counts counts{check.configurations, check.transitions,
                        check.terminal_configurations};
    if (!first_counts_[slot].has_value()) {
      first_counts_[slot] = counts;
    } else if (*first_counts_[slot] != counts) {
      report_.error("model checker counts changed between repeats on " +
                    item.ring.to_string());
    }
    if (traced) {
      // Span: this search's wall and its snapshot work (each transition
      // restores and re-encodes all n processes).
      traced_wall_s_ += unit.wall_s;
      const std::uint64_t work = check.transitions * item.ring.size();
      traced_snapshot_work_[item.algorithm == AlgorithmId::kAk ? 0 : 1] += work;
    }
    return unit;
  }

  [[nodiscard]] bool cpu_per_configuration() const override { return true; }

  void describe(hr::support::JsonWriter& json) const override {
    json.key("algorithms").begin_array().value("Ak").value("Bk").end_array();
    json.key("k").value("ring multiplicity");
    json.key("families").begin_array();
    for (const Family& family : kModelCheckFamilies) {
      json.begin_object()
          .key("n")
          .value(static_cast<std::uint64_t>(family.n))
          .key("alphabet")
          .value(static_cast<std::uint64_t>(family.alphabet))
          .end_object();
    }
    json.end_array();
    json.key("searches_per_pass")
        .value(static_cast<std::uint64_t>(items_.size()));
    json.key("threads").value(std::uint64_t{1});
  }

  /// Model: each transition restores and re-encodes the n process states
  /// (election.snapshot_ns per process). The residual is the share of the
  /// traced searches' wall spent elsewhere: firing, hashing, the visited
  /// set and the safety checks.
  [[nodiscard]] double residual(const LayerCosts& costs) const override {
    if (traced_wall_s_ <= 0.0) return 1.0;
    const double predicted_ns =
        static_cast<double>(traced_snapshot_work_[0]) * costs.snapshot_ns_ak +
        static_cast<double>(traced_snapshot_work_[1]) * costs.snapshot_ns_bk;
    return 1.0 - predicted_ns / (traced_wall_s_ * 1e9);
  }

 private:
  using Counts = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

  /// One exhaustive search with k = the ring's multiplicity; it passes
  /// when it is complete and found no violation.
  static Unit search(const CheckItem& item, hr::core::ModelCheckReport& check) {
    const auto start = Clock::now();
    check = hr::core::check_all_schedules(
        item.ring, {item.algorithm, item.ring.max_multiplicity(), false});
    Unit unit;
    unit.wall_s = seconds_since(start);
    unit.elections = 1;
    unit.failed = check.ok && check.complete ? 0 : 1;
    if (unit.failed == 0) unit.configurations = check.configurations;
    return unit;
  }

  Report& report_;
  std::vector<CheckItem> items_;
  std::vector<std::optional<Counts>> first_counts_;
  double traced_wall_s_ = 0.0;
  /// Σ transitions × n over traced searches, A_k then B_k.
  std::array<std::uint64_t, 2> traced_snapshot_work_{};
};

}  // namespace

std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (index + 1));
  return hr::support::splitmix64(state);
}

hr::core::SweepConfig SweepParams::config(std::uint64_t campaign_seed) const {
  hr::core::SweepConfig config;
  config.election.algorithm = algorithm_config();
  config.election.scheduler = scheduler;
  config.source = hr::core::RingSource::random_asymmetric(n, alphabet());
  config.cells = cells;
  config.seed = campaign_seed;
  config.workers = workers;
  config.backend = hr::core::CampaignBackend::kAuto;
  config.verify = true;
  config.check_true_leader = true;
  return config;
}

hr::ring::LabeledRing SweepParams::cell_ring(std::uint64_t campaign_seed,
                                             std::size_t cell) const {
  const hr::core::CellSeeds seeds =
      hr::core::derive_cell_seeds(campaign_seed, cell);
  hr::support::Rng rng(seeds.ring_seed);
  return hr::ring::random_asymmetric_ring(n, k, alphabet(), rng).value();
}

// -- inhost-ak --------------------------------------------------------------

void InHostWorkload::setup(std::uint64_t seed) {
  // The asymmetric pattern 1.2.1.3 (a homonym pair, so k = 2 matters),
  // relabeled order-preservingly and rotated by the seed. A_k only
  // compares labels and a rotation renames the processes, so every seed
  // gives the program a different ring with the same protocol work.
  hr::support::Rng rng(seed);
  std::array<std::uint64_t, 3> values{};
  do {
    for (auto& v : values) v = rng.in_range(1, 64);
    std::sort(values.begin(), values.end());
  } while (values[0] == values[1] || values[1] == values[2]);
  const std::array<std::size_t, kInHostN> pattern{0, 1, 0, 2};
  const std::size_t rotation = rng.below(kInHostN);
  hr::ring::LabelSequence labels;
  for (std::size_t i = 0; i < kInHostN; ++i) {
    labels.push_back(hr::ring::Label(static_cast<hr::ring::Label::rep_type>(
        values[pattern[(i + rotation) % kInHostN]])));
  }
  ring_.emplace(std::move(labels));
  const hr::election::AlgorithmConfig algorithm{AlgorithmId::kAk, kInHostK,
                                                false};
  factory_ = hr::election::make_factory(algorithm);
  leader_ = ring_->true_leader();
  hr::core::ElectionConfig reference;
  reference.algorithm = algorithm;
  const hr::sim::RunResult sim = hr::core::run_election(*ring_, reference);
  if (!hr::core::verify_election(*ring_, sim, true).ok) {
    report_.error("step engine failed to elect on " + ring_->to_string());
  }
  expected_actions_ = sim.stats.actions;
  expected_messages_ = sim.stats.messages_sent;
  (void)run(kWarmupIndex, false);
  untraced_ms_.clear();
  wire_rejects_ = 0;
  sends_abandoned_ = 0;
  trace_ = {};
}

Unit InHostWorkload::run(std::uint64_t index, bool traced) {
  hr::runtime::InHostConfig config;
  config.record_trace = false;
  if (traced) {
    config.flight_recorder = true;
    // Large enough that no event of an n=4 election is overwritten.
    config.flight_capacity = 1 << 13;
  }
  const std::uint64_t call_ns = steady_ns();
  const hr::runtime::InHostResult result =
      hr::runtime::run_inhost(*ring_, factory_, config);
  const std::uint64_t return_ns = steady_ns();

  Unit unit;
  unit.wall_s = static_cast<double>(return_ns - call_ns) / 1e9;
  unit.elections = 1;
  const bool ok = result.outcome == hr::sim::Outcome::kTerminated &&
                  result.leader_pid() == std::optional<std::size_t>(leader_) &&
                  result.wire_rejects == 0 && result.sends_abandoned == 0 &&
                  result.actions == expected_actions_ &&
                  result.messages_sent == expected_messages_;
  unit.failed = ok ? 0 : 1;
  if (ok) unit.configurations = result.actions;
  if (index == kWarmupIndex) return unit;
  wire_rejects_ += result.wire_rejects;
  sends_abandoned_ += result.sends_abandoned;
  if (traced) {
    analyze(result, call_ns, return_ns);
  } else {
    untraced_ms_.push_back(unit.wall_s * 1e3);
  }
  return unit;
}

void InHostWorkload::analyze(const hr::runtime::InHostResult& result,
                             std::uint64_t call_ns, std::uint64_t return_ns) {
  if (!result.forensics.has_value()) {
    report_.error("traced in-host run returned no flight record");
    return;
  }
  std::uint64_t first_join = ~std::uint64_t{0};
  std::uint64_t last_start = 0;
  std::uint64_t last_exit = 0;
  std::uint64_t fires = 0;
  std::uint64_t sends = 0;
  std::vector<std::uint64_t> sent_stamps;
  std::vector<std::uint64_t> recv_stamps;
  std::vector<double> hops;
  for (const hr::runtime::ForensicThread& thread : result.forensics->threads) {
    if (thread.events_dropped != 0) {
      report_.error("flight ring overwrote events; raise flight_capacity");
      return;
    }
    std::optional<std::uint64_t> parked_at;
    for (const hr::telemetry::FlightEvent& event : thread.events) {
      switch (event.kind) {
        case FlightEventKind::kJoin:
          first_join = std::min(first_join, event.ts_ns);
          break;
        case FlightEventKind::kStart:
          last_start = std::max(last_start, event.ts_ns);
          break;
        case FlightEventKind::kExit:
          last_exit = std::max(last_exit, event.ts_ns);
          break;
        case FlightEventKind::kFire:
          ++fires;
          break;
        case FlightEventKind::kSend:
          ++sends;
          sent_stamps.push_back(event.arg);
          break;
        case FlightEventKind::kRecv:
          recv_stamps.push_back(event.arg);
          if (event.ts_ns >= event.arg) hops.push_back(us(event.ts_ns - event.arg));
          break;
        case FlightEventKind::kPark:
          ++trace_.parks;
          parked_at = event.ts_ns;
          break;
        case FlightEventKind::kDoorbellWake:
          ++trace_.wakes;
          if (parked_at.has_value()) {
            trace_.parked_us += us(event.ts_ns - *parked_at);
            parked_at.reset();
          }
          break;
        case FlightEventKind::kBackoffEscalate:
          ++trace_.escalations;
          break;
        default:
          break;
      }
    }
  }
  // Every received frame must match a sent one by its send stamp.
  std::sort(sent_stamps.begin(), sent_stamps.end());
  std::sort(recv_stamps.begin(), recv_stamps.end());
  if (sent_stamps != recv_stamps) {
    report_.error("in-host received frames do not match the sent frames");
  }
  if (fires != expected_actions_ || sends != expected_messages_) {
    report_.error("in-host run fired " + std::to_string(fires) + " / sent " +
                  std::to_string(sends) + "; the step engine fired " +
                  std::to_string(expected_actions_) + " / sent " +
                  std::to_string(expected_messages_));
  }
  if (!(call_ns <= first_join && first_join <= last_start &&
        last_start <= last_exit && last_exit <= return_ns)) {
    report_.error("in-host phase boundaries out of order");
    return;
  }
  trace_.fires += fires;
  trace_.sends += sends;
  trace_.hop_us.insert(trace_.hop_us.end(), hops.begin(), hops.end());
  trace_.spawn_us.push_back(us(first_join - call_ns));
  trace_.bootstrap_us.push_back(us(last_start - first_join));
  trace_.elect_us.push_back(us(last_exit - last_start));
  trace_.teardown_us.push_back(us(return_ns - last_exit));
  trace_.wall_us.push_back(us(return_ns - call_ns));
}

void InHostWorkload::describe(hr::support::JsonWriter& json) const {
  json.key("algorithm").value("Ak");
  json.key("n").value(static_cast<std::uint64_t>(kInHostN));
  json.key("k").value(static_cast<std::uint64_t>(kInHostK));
  json.key("ring").value(ring_.has_value() ? ring_->to_string() : "");
  json.key("record_trace").value(false);
  json.key("flight_recorder").value("traced units only");
}

/// Model: call → first join (spawn), → last start (bootstrap), → last exit
/// (election), → return (teardown). The phases tile the call, so the
/// residual is what the boundaries leave out — zero up to rounding while
/// the runtime's clock and the benchmark's agree.
double InHostWorkload::residual(const LayerCosts& /*costs*/) const {
  const double wall = mean(trace_.wall_us);
  if (wall <= 0.0) return 1.0;
  const double phases = mean(trace_.spawn_us) + mean(trace_.bootstrap_us) +
                        mean(trace_.elect_us) + mean(trace_.teardown_us);
  return 1.0 - phases / wall;
}

void InHostWorkload::report_runtime(Report& report) const {
  const double calls = static_cast<double>(
      std::max<std::size_t>(trace_.wall_us.size(), 1));
  report.metric("runtime.spawn_us", "us", mean(trace_.spawn_us));
  report.metric("runtime.bootstrap_us", "us", mean(trace_.bootstrap_us));
  report.metric("runtime.elect_us", "us", mean(trace_.elect_us));
  report.metric("runtime.teardown_us", "us", mean(trace_.teardown_us));
  report.metric("runtime.fires", "count",
                static_cast<double>(trace_.fires) / calls);
  report.metric("runtime.sends", "count",
                static_cast<double>(trace_.sends) / calls);
  report.metric("runtime.hop_us_p50", "us", quantile(trace_.hop_us, 0.50));
  report.metric("runtime.hop_us_p99", "us", quantile(trace_.hop_us, 0.99));
  report.metric("runtime.parks", "count",
                static_cast<double>(trace_.parks) / calls);
  report.metric("runtime.wakes", "count",
                static_cast<double>(trace_.wakes) / calls);
  report.metric("runtime.escalations", "count",
                static_cast<double>(trace_.escalations) / calls);
  report.metric("runtime.parked_us", "us", trace_.parked_us / calls);
  report.metric("runtime.election_ms_p99", "ms", quantile(untraced_ms_, 0.99));
  report.metric("runtime.wire_rejects", "count",
                static_cast<double>(wire_rejects_));
  report.metric("runtime.sends_abandoned", "count",
                static_cast<double>(sends_abandoned_));
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        Report& report) {
  if (name == "sweep-ak") return std::make_unique<SweepWorkload>(kSweepAk, report);
  if (name == "sweep-bk") return std::make_unique<SweepWorkload>(kSweepBk, report);
  if (name == "inhost-ak") return std::make_unique<InHostWorkload>(report);
  if (name == "modelcheck") return std::make_unique<ModelCheckWorkload>(report);
  return nullptr;
}

}  // namespace perfbench
