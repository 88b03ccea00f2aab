// Shared plumbing of the benchmark binary: clocks, resource usage,
// quantiles, and the report every run prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nanoseconds of the steady clock since its epoch: the clock the in-host
/// runtime stamps frames and flight events with, so the benchmark's own
/// readings line up with InHostResult::forensics timestamps.
[[nodiscard]] inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Process CPU time, user + system, in seconds.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for no values.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Per-operation costs measured by the layer probes (probes.hpp), the
/// inputs of the per-workload cost models (Workload::residual).
struct LayerCosts {
  double ring_gen_us = 0.0;
  double true_leader_us = 0.0;
  double sim_election_us = 0.0;
  double verify_us = 0.0;
  double batch_us_per_election = 0.0;
  /// Process::decode + Process::encode round trip, per algorithm.
  double snapshot_ns_ak = 0.0;
  double snapshot_ns_bk = 0.0;
};

/// What one run reports. `failed` counts operations that failed their
/// correctness gate; `errors` holds failed cross-checks (determinacy,
/// counts that must agree), each of which makes the run incorrect.
class Report {
 public:
  void metric(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value});
  }
  void error(const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Prints the result object as one line: correct, attempted, failed and
  /// every metric with its unit. Returns false (and reports why on stderr)
  /// when a value cannot be printed as a JSON number.
  bool print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace perfbench
