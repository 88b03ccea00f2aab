// The four workloads. Each is a closed loop: the caller starts unit i+1
// only after unit i returns, and every unit's input is a function of the
// run's seed and the unit index alone (the program sees only the rings).
//
//   sweep-ak   one run_campaign per unit: A_k, synchronous daemon, batch
//              engine, fresh random asymmetric n=8 ring per cell
//   sweep-bk   one run_campaign per unit: B_k, random-subset daemon,
//              scalar engine, fresh random asymmetric n=8 ring per cell
//   inhost-ak  one run_inhost per unit on one seeded n=4 ring
//   modelcheck one check_all_schedules per unit over the canonical
//              asymmetric rings of two families, A_k and B_k
//
// perfbench/README.md records why each workload exists and which
// per-layer metric should move which end-to-end metric.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace hr = hring;

/// One closed-loop unit of work: what the caller waited for and what it
/// produced.
struct Unit {
  double wall_s = 0.0;
  /// Elections attempted: campaign cells, in-host runs, or model-check
  /// searches (one search checks every schedule of one election).
  std::uint64_t elections = 0;
  /// Of which failed their correctness gate.
  std::uint64_t failed = 0;
  /// Configurations the passing elections went through: daemon steps
  /// (sweeps), firings (in-host), distinct configurations (modelcheck).
  std::uint64_t configurations = 0;
};

/// Seed of campaign `index` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t index);

/// A campaign front-end configuration: the sweep workloads, and the probes
/// that split them into layers.
struct SweepParams {
  hr::election::AlgorithmId algorithm;
  std::size_t n;
  std::size_t k;
  hr::core::SchedulerKind scheduler;
  std::size_t workers;
  /// Cells per run_campaign call.
  std::size_t cells;

  /// Label alphabet of the campaign's random asymmetric rings (the
  /// RingSource default, spelled out so the probes draw the same rings).
  [[nodiscard]] std::size_t alphabet() const { return (n + k - 1) / k + 2; }
  [[nodiscard]] hr::election::AlgorithmConfig algorithm_config() const {
    return {algorithm, k, false};
  }
  [[nodiscard]] hr::core::SweepConfig config(std::uint64_t campaign_seed) const;
  /// The ring of campaign cell `cell`, drawn exactly as the campaign draws
  /// it (derive_cell_seeds, then random_asymmetric_ring).
  [[nodiscard]] hr::ring::LabeledRing cell_ring(std::uint64_t campaign_seed,
                                                std::size_t cell) const;
};

inline const SweepParams kSweepAk{hr::election::AlgorithmId::kAk, 8, 2,
                                  hr::core::SchedulerKind::kSynchronous, 2,
                                  4096};
inline const SweepParams kSweepBk{hr::election::AlgorithmId::kBk, 8, 2,
                                  hr::core::SchedulerKind::kRandomSubset, 2,
                                  2048};

/// inhost-ak: A_k with k = 2 on n = 4 (one worker thread per core on a
/// 4-core host, so the numbers measure the runtime, not oversubscription).
inline constexpr std::size_t kInHostN = 4;
inline constexpr std::size_t kInHostK = 2;

/// modelcheck: the (n, alphabet) families past experiment E13's grid.
struct Family {
  std::size_t n;
  std::size_t alphabet;
};
inline constexpr std::array<Family, 2> kModelCheckFamilies{{{5, 3}, {6, 2}}};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Draws the inputs from `seed`, builds the factories and runs one
  /// warm-up unit. Every call starts afresh (an untraced run times one per slice).
  virtual void setup(std::uint64_t seed) = 0;

  /// Runs unit `index`. Traced units add the benchmark's spans and counts
  /// (and the flight recorder on inhost-ak); the input is the same.
  virtual Unit run(std::uint64_t index, bool traced) = 0;

  /// True when cpu_us_per_op divides by configurations, not elections.
  [[nodiscard]] virtual bool cpu_per_configuration() const { return false; }

  /// Adds the workload's parameters to the environment record (keys of an
  /// open JSON object).
  virtual void describe(hr::support::JsonWriter& json) const = 0;

  /// 1 − (time the workload's cost model explains) / (measured time), over
  /// the units run since setup. `costs` come from the layer probes.
  [[nodiscard]] virtual double residual(const LayerCosts& costs) const = 0;
};

/// Per-call phase split and event counts of traced in-host elections,
/// from the benchmark's clock and the flight recorder's events.
struct InHostTrace {
  std::vector<double> spawn_us, bootstrap_us, elect_us, teardown_us;
  std::vector<double> wall_us;
  std::vector<double> hop_us;
  std::uint64_t fires = 0, sends = 0, parks = 0, wakes = 0, escalations = 0;
  double parked_us = 0.0;
};

/// inhost-ak, exposed so the runtime-layer probe of every traced run can
/// drive it and read its trace.
class InHostWorkload final : public Workload {
 public:
  explicit InHostWorkload(Report& report) : report_(report) {}

  void setup(std::uint64_t seed) override;
  Unit run(std::uint64_t index, bool traced) override;
  void describe(hr::support::JsonWriter& json) const override;
  [[nodiscard]] double residual(const LayerCosts& costs) const override;

  /// Adds the runtime.* per-layer metrics over the units run since setup.
  void report_runtime(Report& report) const;

 private:
  /// Splits one traced call into phases and counts its flight events.
  void analyze(const hr::runtime::InHostResult& result,
               std::uint64_t call_ns, std::uint64_t return_ns);

  Report& report_;
  std::optional<hr::ring::LabeledRing> ring_;
  hr::sim::ProcessFactory factory_;
  std::size_t leader_ = 0;
  /// The step engine's counts for the same ring; A_k is a Kahn network,
  /// so every schedule of every backend must reproduce them.
  std::uint64_t expected_actions_ = 0;
  std::uint64_t expected_messages_ = 0;
  std::vector<double> untraced_ms_;
  std::uint64_t wire_rejects_ = 0;
  std::uint64_t sends_abandoned_ = 0;
  InHostTrace trace_;
};

/// "sweep-ak", "sweep-bk", "inhost-ak" or "modelcheck"; nullptr otherwise.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      Report& report);

}  // namespace perfbench
