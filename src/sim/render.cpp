#include "sim/render.hpp"

#include <limits>
#include <ostream>

#include "ring/labeled_ring.hpp"

namespace hring::sim {

void render_configuration(const ExecutionView& view, std::ostream& out) {
  const std::size_t n = view.process_count();
  out << "step " << view.current_step() << " (t=" << view.current_time()
      << ")\n";
  for (ProcessId pid = 0; pid < n; ++pid) {
    const Process& p = view.process(pid);
    out << "  p" << pid << " [" << words::to_string(p.id()) << "]  "
        << p.debug_state();
    if (p.is_leader()) out << "  <- leader";
    if (p.halted()) out << "  (halted)";
    out << '\n';
  }
  for (ProcessId pid = 0; pid < n; ++pid) {
    const Link& link = view.out_link(pid);
    if (link.empty()) continue;
    out << "  p" << pid << " -> p" << ring::right(pid, n) << " :";
    // Links expose only the head; re-rendering full contents would need a
    // scan API, so show occupancy plus the deliverable head.
    out << " " << link.size() << " in flight";
    if (const Message* head =
            link.head(std::numeric_limits<double>::infinity())) {
      out << ", head " << to_string(*head);
    }
    out << '\n';
  }
}

std::string render_summary(const ExecutionView& view) {
  const std::size_t n = view.process_count();
  std::size_t halted = 0;
  std::size_t leaders = 0;
  std::size_t done = 0;
  std::size_t in_flight = 0;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const Process& p = view.process(pid);
    if (p.halted()) ++halted;
    if (p.is_leader()) ++leaders;
    if (p.done()) ++done;
    in_flight += view.out_link(pid).size();
  }
  std::string out = "step " + std::to_string(view.current_step()) + ": ";
  out += std::to_string(leaders) + " leader(s), ";
  out += std::to_string(done) + " done, ";
  out += std::to_string(halted) + " halted, ";
  out += std::to_string(in_flight) + " in flight";
  return out;
}

void WatchObserver::on_step_end(const ExecutionView& view) {
  if (view.current_step() % every_ != 0) return;
  render_configuration(view, out_);
}

}  // namespace hring::sim
