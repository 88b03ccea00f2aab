// Experiment E4 — Theorems 3/4: B_k's complexity, measured.
//
//   time, messages = O(k²n²);   space = 2⌈log k⌉ + 3b + 5 bits (exact);
//   phases X <= (k+1)·n.
//
// The table reports measured values, the exact space bound, the phase
// bound, and the normalized quotients time/(k²n²) and msgs/(k²n²) — the
// paper's asymptotic claim is that those quotients stay bounded as n and
// k grow. A per-action census over one run confirms every fired action is
// one of B1-B11 (Table 2 is the complete program).
#include <iostream>
#include <map>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "election/bk.hpp"
#include "sim/event_engine.hpp"
#include "ring/generator.hpp"
#include "sim/trace.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry_observer.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto format = benchutil::output_format(argc, argv);
  const bool smoke = benchutil::smoke_mode(argc, argv);

  benchutil::headline(format,
                      "E4: B_k measured vs Theorem 4 (event engine, unit "
                      "delays)");
  support::Table table({"profile", "n", "k", "time", "t/(k2n2)", "msgs",
                        "m/(k2n2)", "phases X", "(k+1)n", "bits",
                        "space bound"});
  support::Rng rng(0xE4);

  // One observer across every row: its registry is cumulative, so the
  // --json output carries the grid-wide latency/space/phase histograms.
  telemetry::TelemetryObserver telemetry_observer;

  const auto run_row = [&](const char* profile,
                           const ring::LabeledRing& ring, std::size_t k) {
    const std::size_t n = ring.size();
    sim::ConstantDelay delay(1.0);
    sim::EventEngine engine(ring,
                            election::BkProcess::factory(k, true), delay);
    engine.add_observer(&telemetry_observer);
    const auto result = engine.run();
    const auto verification = core::verify_election(
        ring, result, /*check_true_leader=*/true);
    if (!verification.ok) {
      std::cerr << "verification FAILED on " << ring.to_string() << ": "
                << verification.to_string() << "\n";
      std::exit(1);
    }
    std::size_t phases = 0;
    for (sim::ProcessId pid = 0; pid < n; ++pid) {
      const auto& proc =
          dynamic_cast<const election::BkProcess&>(engine.process(pid));
      phases = std::max(phases, proc.phase());
    }
    const double k2n2 = static_cast<double>(k * k * n * n);
    table.row()
        .cell(profile)
        .cell(static_cast<std::uint64_t>(n))
        .cell(static_cast<std::uint64_t>(k))
        .cell(result.stats.time_units, 0)
        .cell(result.stats.time_units / k2n2, 3)
        .cell(result.stats.messages_sent)
        .cell(static_cast<double>(result.stats.messages_sent) / k2n2, 3)
        .cell(static_cast<std::uint64_t>(phases))
        .cell(static_cast<std::uint64_t>(core::bk_phase_bound(n, k)))
        .cell(static_cast<std::uint64_t>(result.stats.peak_space_bits))
        .cell(static_cast<std::uint64_t>(
            core::bk_space_bound(k, ring.label_bits())));
  };

  for (const std::size_t k : {1u, 2u, 4u}) {
    for (const std::size_t n : {8u, 16u, 32u, 64u}) {
      if (k * n > 192) continue;  // trim the slowest quadratic corner
      if (smoke && (k > 2 || n > 16)) continue;
      run_row("distinct", ring::distinct_ring(n, rng), k);
      if (k >= 2) {
        const auto asym = ring::random_asymmetric_ring(
            n, k, (n + k - 1) / k + 2, rng);
        if (asym) run_row("homonym", *asym, k);
      }
    }
  }
  benchutil::emit(table, format, telemetry_observer.metrics());

  if (format != benchutil::Format::kJson) {
    // Action census on the Figure 1 ring: Table 2 is the whole program.
    const auto fig1 = ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1,
                                                      2});
    sim::StepEngine engine(fig1, election::BkProcess::factory(3),
                           sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
    sim::TraceRecorder trace;
    engine.add_observer(&trace);
    engine.run();
    std::cout << "\naction census, B_3 on the Figure 1 ring "
              << fig1.to_string() << ":\n  ";
    for (const auto& [action, count] : trace.action_census()) {
      std::cout << action << "=" << count << " ";
    }
    std::cout << "\n\npaper: time/(k2n2) and msgs/(k2n2) stay bounded "
                 "(Theorem 4); X <= (k+1)n; space\nequals the exact "
                 "formula 2*ceil(log k) + 3b + 5 independent of n "
                 "(contrast E3).\n";
  }
  return 0;
}
