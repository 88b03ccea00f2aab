#include "sim/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "ring/labeled_ring.hpp"
#include "support/assert.hpp"

namespace hring::sim {

void TraceRecorder::on_action(const ExecutionView& view,
                              const ActionEvent& event) {
  if (entries_.size() >= max_entries_) {
    ++dropped_;
    return;
  }
  entries_.push_back(
      Entry{event, view.process(event.pid).debug_state()});
}

void TraceRecorder::print(std::ostream& out) const {
  for (const Entry& e : entries_) {
    out << "[step " << e.event.step << " t=" << e.event.time << "] p"
        << e.event.pid;
    if (!e.event.action.empty()) out << ' ' << e.event.action;
    if (e.event.consumed.has_value()) {
      out << " rcv " << to_string(*e.event.consumed);
    }
    out << " -> " << e.state_after << '\n';
  }
  if (dropped_ > 0) out << "(" << dropped_ << " actions dropped)\n";
}

std::vector<std::pair<std::string, std::uint64_t>>
TraceRecorder::action_census() const {
  std::map<std::string, std::uint64_t> census;
  for (const Entry& e : entries_) ++census[std::string(e.event.action)];
  return {census.begin(), census.end()};
}

std::vector<std::vector<Message>> link_histories(const TraceRecorder& trace,
                                                 std::size_t n) {
  std::vector<std::vector<Message>> histories(n);
  for (const TraceRecorder::Entry& e : trace.entries()) {
    HRING_EXPECTS(e.event.pid < n);
    if (e.event.consumed.has_value()) {
      histories[ring::left(e.event.pid, n)].push_back(*e.event.consumed);
    }
  }
  return histories;
}

}  // namespace hring::sim
