// perfbench: the repository benchmark binary.
//
//   perfbench --workload <sweep-ak|sweep-bk|inhost-ak|modelcheck>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload's closed loop untraced for --seconds and
// reports the end-to-end metrics; --trace 1 runs the layer probes and the
// workload's traced units and reports the per-layer metrics. Either way
// stdout ends with an environment record line and then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and runs it; perfbench/README.md
// defines every metric.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "probes.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || !have_workload || !(options.seconds > 0.0)) {
    return std::nullopt;
  }
  return options;
}

/// The timed loop is cut into this many equal slices of time. Each slice
/// starts with one timed set-up.
constexpr std::size_t kSlices = 20;

/// The set-up and the units that ended in one slice of time, and their
/// totals.
struct Slice {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t passed = 0;
  std::uint64_t configurations = 0;
  std::uint64_t ops = 0;
  std::vector<double> unit_ms;

  [[nodiscard]] double rate() const {
    return wall_s > 0.0 ? static_cast<double>(configurations) / wall_s : 0.0;
  }
};

/// The half of the slices with the highest configuration rate. The host
/// is shared and its slow spells last seconds; they slow the program's
/// code and the benchmark's alike, so the metrics are taken over the
/// quiet half of the run rather than over every slice.
std::vector<Slice> quiet_half(std::vector<Slice> slices) {
  std::erase_if(slices, [](const Slice& s) { return s.unit_ms.empty(); });
  std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return a.rate() > b.rate();
  });
  slices.resize((slices.size() + 1) / 2);
  return slices;
}

std::size_t slice_at(Clock::time_point start, double seconds) {
  const auto at =
      static_cast<std::size_t>(seconds_since(start) / seconds * kSlices);
  return std::min(at, kSlices - 1);
}

/// --trace 0: the closed loop for `seconds`, with a timed set-up at the
/// start of every slice. Set-ups are spread over the run rather than
/// repeated back to back, so that setup_s, like every other metric, is
/// taken over the quiet half.
std::uint64_t run_untraced(Workload& workload, const Options& options,
                           Report& report) {
  workload.setup(options.seed);  // cold: first page faults and thread starts

  std::vector<Slice> slices(kSlices);
  const auto start = Clock::now();
  std::size_t set_up = 0;  // slices whose set-up has run
  double cpu_s = 0.0;
  for (std::uint64_t index = 0; seconds_since(start) < options.seconds;
       ++index) {
    if (const std::size_t at = slice_at(start, options.seconds); at >= set_up) {
      const auto setup_start = Clock::now();
      workload.setup(options.seed);
      slices[at].setup_s.push_back(seconds_since(setup_start));
      set_up = at + 1;
      cpu_s = process_cpu_seconds();
    }
    const Unit unit = workload.run(index, false);
    const double cpu_now = process_cpu_seconds();
    Slice& slice = slices[slice_at(start, options.seconds)];
    slice.wall_s += unit.wall_s;
    slice.cpu_s += cpu_now - cpu_s;
    slice.passed += unit.elections - unit.failed;
    slice.configurations += unit.configurations;
    slice.ops += workload.cpu_per_configuration() ? unit.configurations
                                                  : unit.elections;
    slice.unit_ms.push_back(unit.wall_s * 1e3);
    cpu_s = cpu_now;
    report.count(unit.elections, unit.failed);
  }

  Slice quiet;
  for (const Slice& slice : quiet_half(std::move(slices))) {
    quiet.setup_s.insert(quiet.setup_s.end(), slice.setup_s.begin(),
                         slice.setup_s.end());
    quiet.wall_s += slice.wall_s;
    quiet.cpu_s += slice.cpu_s;
    quiet.passed += slice.passed;
    quiet.configurations += slice.configurations;
    quiet.ops += slice.ops;
    quiet.unit_ms.insert(quiet.unit_ms.end(), slice.unit_ms.begin(),
                         slice.unit_ms.end());
  }
  report.metric("elections_per_s", "1/s",
                static_cast<double>(quiet.passed) / quiet.wall_s);
  report.metric("configs_per_s", "1/s", quiet.rate());
  report.metric("election_ms_p50", "ms", quantile(quiet.unit_ms, 0.50));
  report.metric("election_ms_p90", "ms", quantile(quiet.unit_ms, 0.90));
  report.metric("cpu_us_per_op", "us",
                quiet.cpu_s * 1e6 /
                    static_cast<double>(std::max<std::uint64_t>(quiet.ops, 1)));
  report.metric("setup_s", "s", quantile(quiet.setup_s, 0.5));
  report.metric("peak_rss_mb", "MiB", peak_rss_mib());
  return quiet.unit_ms.size();
}

/// Untraced/traced pairs on the same inputs, for `budget_s`.
struct PairedPass {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t pairs = 0;
};

PairedPass run_pairs(Workload& workload, double budget_s, Report& report) {
  PairedPass pass;
  const auto start = Clock::now();
  for (std::uint64_t index = 0;
       pass.pairs == 0 || seconds_since(start) < budget_s; ++index) {
    const Unit untraced = workload.run(index, false);
    const Unit traced = workload.run(index, true);
    pass.untraced_s += untraced.wall_s;
    pass.traced_s += traced.wall_s;
    ++pass.pairs;
    report.count(untraced.elections + traced.elections,
                 untraced.failed + traced.failed);
  }
  return pass;
}

/// --trace 1: the layer probes, the runtime layer's traced elections, and
/// the workload's own untraced/traced pairs.
std::uint64_t run_traced(Workload& workload, const Options& options,
                         Report& report) {
  workload.setup(options.seed);
  const double s = options.seconds;
  const LayerCosts costs = run_layer_probes(options.seed, 0.45 * s, report);

  auto* inhost = dynamic_cast<InHostWorkload*>(&workload);
  const bool own_runtime = inhost != nullptr;
  std::optional<InHostWorkload> runtime_probe;
  if (!own_runtime) {
    runtime_probe.emplace(report);
    runtime_probe->setup(options.seed);
    inhost = &*runtime_probe;
  }
  const PairedPass runtime_pass =
      run_pairs(*inhost, own_runtime ? 0.5 * s : 0.15 * s, report);
  inhost->report_runtime(report);

  const PairedPass own =
      own_runtime ? runtime_pass : run_pairs(workload, 0.35 * s, report);
  report.metric("telemetry.trace_overhead", "ratio",
                own.traced_s / own.untraced_s);
  report.metric("model.residual_frac", "fraction", workload.residual(costs));
  report.metric("fail_ratio", "fraction",
                static_cast<double>(report.failed()) /
                    static_cast<double>(report.attempted()));
  return own.pairs;
}

void print_environment(const Workload& workload, const Options& options,
                       std::uint64_t samples) {
  hring::support::JsonWriter json(std::cout);
  json.begin_object().key("env").begin_object();
  json.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("compiler").value(PERFBENCH_COMPILER);
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("seed").value(options.seed);
  json.key("seconds").value(options.seconds);
  json.key("trace").value(options.trace);
  json.key("workload").begin_object();
  json.key("name").value(options.workload);
  workload.describe(json);
  json.end_object();
  if (options.trace) {
    json.key("traced_pairs").value(samples);
  } else {
    json.key("slices").value(static_cast<std::uint64_t>(kSlices));
    json.key("quiet_half_units").value(samples);
  }
  json.end_object().end_object();
  std::cout << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> options = parse(argc, argv);
  if (!options.has_value()) {
    std::cerr << "usage: perfbench --workload <sweep-ak|sweep-bk|inhost-ak|"
                 "modelcheck> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  Report report;
  const std::unique_ptr<Workload> workload =
      make_workload(options->workload, report);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << options->workload << "\n";
    return 2;
  }
  try {
    const std::uint64_t samples =
        options->trace ? run_traced(*workload, *options, report)
                       : run_untraced(*workload, *options, report);
    print_environment(*workload, *options, samples);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return report.print(std::cout) ? 0 : 1;
}
