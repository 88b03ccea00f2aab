// Figure 1 reproduction (experiment E5): run B_3 on the 8-process ring
// labeled (1,3,1,3,2,2,1,2) and print, for each phase, every process's
// guest value and active/passive status — the information the paper's
// Figure 1 displays as gray labels and white/black nodes. p0 is elected.
//
// The same run is exported as a Chrome trace-event / Perfetto JSON
// timeline (default figure1_trace.json, or argv[1]): open it at
// https://ui.perfetto.dev to see the figure's phase schedule as spans.
//
//   $ ./figure1_trace [trace.json]
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "election/bk.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry_observer.hpp"
#include "telemetry/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace hring;

  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const std::size_t k = 3;
  std::cout << "B_" << k << " on ring " << ring.to_string()
            << " (Figure 1 of the paper)\n\n";

  sim::StepEngine engine(
      ring, election::BkProcess::factory(k, /*record_history=*/true),
      sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  telemetry::TelemetryObserver telemetry_observer;
  engine.add_observer(&telemetry_observer);
  const auto result = engine.run();
  if (result.outcome != sim::Outcome::kTerminated) {
    std::cerr << "unexpected outcome: " << sim::outcome_name(result.outcome)
              << "\n";
    return 1;
  }

  // Collect per-process phase histories.
  std::vector<const election::BkProcess*> procs;
  std::size_t max_phase = 0;
  for (sim::ProcessId pid = 0; pid < ring.size(); ++pid) {
    const auto* proc =
        dynamic_cast<const election::BkProcess*>(&engine.process(pid));
    procs.push_back(proc);
    max_phase = std::max(max_phase, proc->history().size());
  }

  std::vector<std::string> headers = {"phase"};
  for (sim::ProcessId pid = 0; pid < ring.size(); ++pid) {
    std::string header = "p";
    header += std::to_string(pid);
    headers.push_back(std::move(header));
  }
  support::Table table(headers);
  for (std::size_t phase = 1; phase <= max_phase; ++phase) {
    table.row().cell(static_cast<std::uint64_t>(phase));
    for (const auto* proc : procs) {
      if (phase <= proc->history().size()) {
        const auto& rec = proc->history()[phase - 1];
        // "3*" = guest 3, still active at the beginning of the phase;
        // plain "3" = passive (the figure's black nodes).
        std::string cell = words::to_string(rec.guest);
        if (rec.active) cell += '*';
        table.cell(cell);
      } else {
        table.cell("-");
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(*) process is active (white in the figure) at the "
               "beginning of the phase.\n\n";

  const auto leader = result.leader_pid();
  std::cout << "elected: p" << *leader << " (label "
            << words::to_string(ring.label(*leader)) << "), after "
            << procs[*leader]->phase() << " phases — the paper shows the "
            << "first four, with p0 winning.\n";

  const char* trace_path = argc > 1 ? argv[1] : "figure1_trace.json";
  std::ofstream trace_file(trace_path);
  if (!trace_file) {
    std::cerr << "cannot open " << trace_path << "\n";
    return 1;
  }
  telemetry::write_trace_json(trace_file, telemetry_observer);
  std::cout << "\ntimeline: " << trace_path
            << " (load at https://ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}
