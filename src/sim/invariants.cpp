#include "sim/invariants.hpp"

#include "support/assert.hpp"

namespace hring::sim {

void SpecMonitor::on_start(const ExecutionView& view) {
  const auto report = [&](const std::string& what) { record(view, what); };
  shadows_.clear();
  for (ProcessId pid = 0; pid < view.process_count(); ++pid) {
    const SpecView p = SpecView::of(view.process(pid));
    check_initial(p, report);
    shadows_.push_back(p.state);
  }
}

void SpecMonitor::on_step_end(const ExecutionView& view) {
  HRING_ASSERT(shadows_.size() == view.process_count());
  const auto report = [&](const std::string& what) { record(view, what); };
  for (ProcessId pid = 0; pid < view.process_count(); ++pid) {
    const SpecView p = SpecView::of(view.process(pid));
    check_transition(shadows_[pid], p, report);
    shadows_[pid] = p.state;
  }
  check_configuration(
      view.process_count(),
      [&view](ProcessId q) { return SpecView::of(view.process(q)); },
      report);
}

void SpecMonitor::record(const ExecutionView& view, const std::string& what) {
  if (!first_violation_step_.has_value()) {
    first_violation_step_ = view.current_step();
  }
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back("step " + std::to_string(view.current_step()) +
                          ": " + what);
  }
}

}  // namespace hring::sim
