// Trace recording.
//
// Records every fired action (with its consumed message) and optional
// per-step state snapshots; used by the CLI, by the Figure 1 reproduction,
// by the state-diagram conformance tests (E5/E6) and, projected onto the
// links, as the reference of the in-host conformance check.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace hring::sim {

class TraceRecorder : public Observer {
 public:
  struct Entry {
    ActionEvent event;
    /// debug_state() of the firing process right after the action.
    std::string state_after;
  };

  /// `max_entries` bounds memory on runaway executions; further actions are
  /// counted but not stored.
  explicit TraceRecorder(std::size_t max_entries = 1 << 20)
      : max_entries_(max_entries) {}

  void on_action(const ExecutionView& view, const ActionEvent& event) override;

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Pretty-prints the trace, one line per action.
  void print(std::ostream& out) const;

  /// Census of fired action labels: ("A2", 117), … sorted by label.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  action_census() const;

 private:
  std::size_t max_entries_;
  std::vector<Entry> entries_;
  std::uint64_t dropped_ = 0;
};

/// The recorded run's per-link received histories: [i] lists, in order,
/// the messages p_{i+1} consumed from link p_i -> p_{i+1} on an n-process
/// ring. Complete only when trace.dropped() == 0.
[[nodiscard]] std::vector<std::vector<Message>> link_histories(
    const TraceRecorder& trace, std::size_t n);

}  // namespace hring::sim
