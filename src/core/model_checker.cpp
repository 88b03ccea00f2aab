#include "core/model_checker.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "sim/invariants.hpp"
#include "sim/process.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::core {
namespace {

using sim::Label;
using sim::Message;
using sim::Process;
using sim::ProcessId;

/// Flat FIFO message queue of the working configuration. pop is a head
/// bump; restore() rebuilds the queue in place, keeping capacity.
struct CheckLink {
  std::vector<Message> queue;
  std::size_t head = 0;

  [[nodiscard]] bool empty() const { return head == queue.size(); }
  [[nodiscard]] std::size_t size() const { return queue.size() - head; }
  [[nodiscard]] const Message& front() const { return queue[head]; }
  void pop_front() { ++head; }
  void push_back(const Message& msg) { queue.push_back(msg); }
  void clear() {
    queue.clear();
    head = 0;
  }
};

/// Context for one firing inside the working configuration.
class CheckContext final : public sim::Context {
 public:
  CheckContext(std::vector<CheckLink>& links, ProcessId pid)
      : links_(links), pid_(pid) {}

  Message consume() override {
    CheckLink& link = links_[pid_ == 0 ? links_.size() - 1 : pid_ - 1];
    HRING_EXPECTS(!link.empty());
    HRING_EXPECTS(!consumed_);
    consumed_ = true;
    const Message msg = link.front();
    link.pop_front();
    return msg;
  }

  void send(const Message& msg) override { links_[pid_].push_back(msg); }

  void note_action(std::string_view) override {}

 private:
  std::vector<CheckLink>& links_;
  ProcessId pid_;
  bool consumed_ = false;
};

class Checker {
 public:
  Checker(const ring::LabeledRing& ring,
          const election::AlgorithmConfig& algorithm,
          const ModelCheckConfig& config)
      : ring_(ring), config_(config) {
    // The enabled set per configuration is a single word-wide bitmask.
    HRING_EXPECTS(ring.size() <= 64);
    const auto factory = election::make_factory(algorithm);
    links_.resize(ring.size());
    for (ProcessId pid = 0; pid < ring.size(); ++pid) {
      procs_.push_back(factory(pid, ring.label(pid)));
    }
    if (config_.check_true_leader) {
      expected_leader_ = ring.true_leader();
    }
  }

  ModelCheckReport run() {
    const auto report = [this](const std::string& what) {
      fail(what + " at initial configuration");
    };
    for (const auto& p : procs_) sim::check_initial(*p, report);
    check_configuration(report);
    encode_snapshot();
    visited_.insert(hash_from(0));
    report_.configurations = 1;
    explore(/*depth=*/0, /*base=*/0);
    report_.complete = !budget_exhausted_;
    return report_;
  }

 private:
  static constexpr std::uint64_t kSeparator = 0x5E9A7A70A11C0DEULL;

  void fail(const std::string& what) {
    report_.ok = false;
    if (report_.violations.size() < 16) report_.violations.push_back(what);
  }

  [[nodiscard]] const Message* head_of(ProcessId pid) const {
    const CheckLink& link = links_[pid == 0 ? links_.size() - 1 : pid - 1];
    return link.empty() ? nullptr : &link.front();
  }

  [[nodiscard]] bool enabled(ProcessId pid) const {
    const Process& p = *procs_[pid];
    return !p.halted() && p.enabled(head_of(pid));
  }

  /// Appends the working configuration's snapshot to the arena: per
  /// process the encode() words plus a separator (a parse-time integrity
  /// check), per link its in-flight count followed by (kind, label) pairs.
  void encode_snapshot() {
    for (const auto& p : procs_) {
      p->encode(arena_);
      arena_.push_back(kSeparator);
    }
    for (const CheckLink& link : links_) {
      arena_.push_back(link.size());
      for (std::size_t i = link.head; i < link.queue.size(); ++i) {
        arena_.push_back(static_cast<std::uint64_t>(link.queue[i].kind));
        arena_.push_back(link.queue[i].label.value());
      }
    }
  }

  /// Rewinds the working configuration to the snapshot at arena offset
  /// `base`, reusing every buffer.
  void restore_snapshot(std::size_t base) {
    const std::uint64_t* it = arena_.data() + base;
    const std::uint64_t* const end = arena_.data() + arena_.size();
    for (const auto& p : procs_) {
      const bool restored = p->decode(it, end);
      // The factory's processes must support restoration (A_k, B_k and
      // the identified-ring baselines implement decode()).
      HRING_EXPECTS(restored);
      HRING_EXPECTS(it != end && *it == kSeparator);
      ++it;
    }
    for (CheckLink& link : links_) {
      HRING_EXPECTS(it != end);
      const std::uint64_t count = *it++;
      HRING_EXPECTS(static_cast<std::uint64_t>(end - it) >= 2 * count);
      link.clear();
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto kind = static_cast<sim::MsgKind>(*it++);
        const Label label(static_cast<Label::rep_type>(*it++));
        link.push_back(Message{kind, label});
      }
    }
  }

  /// splitmix64 chain over the snapshot words starting at `base`.
  [[nodiscard]] std::uint64_t hash_from(std::size_t base) const {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = base; i < arena_.size(); ++i) {
      std::uint64_t mixed = state ^ arena_[i];
      state = support::splitmix64(mixed);
    }
    return state;
  }

  /// §II's per-configuration clauses on the working configuration.
  template <class Report>
  void check_configuration(Report&& report) const {
    sim::check_configuration(
        procs_.size(),
        [this](ProcessId q) -> const Process& { return *procs_[q]; },
        report);
  }

  void check_terminal() {
    ++report_.terminal_configurations;
    const std::string where = "terminal configuration";
    std::size_t leaders = 0;
    ProcessId leader_pid = 0;
    for (const auto& p : procs_) {
      if (p->is_leader()) {
        ++leaders;
        leader_pid = p->pid();
      }
      if (!p->halted()) fail("process not halted at " + where);
      if (!p->done()) fail("process not done at " + where);
    }
    for (const CheckLink& link : links_) {
      if (!link.empty()) fail("message left in flight at " + where);
    }
    if (leaders != 1) {
      fail(std::to_string(leaders) + " leaders at " + where);
      return;
    }
    const auto leader_label = ring_.label(leader_pid);
    for (const auto& p : procs_) {
      if (!p->leader().has_value() || !(*p->leader() == leader_label)) {
        fail("disagreement on the leader label at " + where);
      }
    }
    if (expected_leader_.has_value() && leader_pid != *expected_leader_) {
      fail("elected p" + std::to_string(leader_pid) +
           " but the true leader is p" + std::to_string(*expected_leader_));
    }
  }

  /// Invariants at entry: the working configuration holds the node, whose
  /// snapshot occupies arena_[base..end) and is already in visited_. On
  /// return the arena is truncated back to its entry size; the working
  /// configuration is left at an arbitrary descendant (callers rewind
  /// before using it).
  void explore(std::size_t depth, std::size_t base) {
    report_.max_depth = std::max(report_.max_depth, depth);
    if (budget_exhausted_) return;

    std::uint64_t enabled_mask = 0;
    for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
      if (enabled(pid)) enabled_mask |= std::uint64_t{1} << pid;
    }
    if (enabled_mask == 0) {
      check_terminal();
      return;
    }

    for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
      if ((enabled_mask & (std::uint64_t{1} << pid)) == 0) continue;
      if (visited_.size() >= config_.max_configurations) {
        budget_exhausted_ = true;
        return;
      }
      restore_snapshot(base);
      const sim::SpecState before = sim::SpecState::of(*procs_[pid]);
      {
        CheckContext ctx(links_, pid);
        const Message* head = head_of(pid);
        procs_[pid]->fire(head, ctx);
      }
      ++report_.transitions;
      const std::size_t child_base = arena_.size();
      encode_snapshot();
      const std::uint64_t h = hash_from(child_base);
      if (!visited_.insert(h).second) {  // configuration seen
        arena_.resize(child_base);
        continue;
      }
      ++report_.configurations;
      // Only the fired process changed: the transition clause needs no
      // other process.
      const auto report = [this, depth](const std::string& what) {
        fail(what + " at depth " + std::to_string(depth + 1));
      };
      sim::check_transition(before, *procs_[pid], report);
      check_configuration(report);
      explore(depth + 1, child_base);
      arena_.resize(child_base);
    }
  }

  const ring::LabeledRing& ring_;
  ModelCheckConfig config_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<CheckLink> links_;
  /// LIFO snapshot arena: one snapshot per node on the current DFS path,
  /// appended on descent and truncated on backtrack.
  std::vector<std::uint64_t> arena_;
  std::optional<ring::ProcessIndex> expected_leader_;
  std::unordered_set<std::uint64_t> visited_;
  ModelCheckReport report_;
  bool budget_exhausted_ = false;
};

}  // namespace

std::string ModelCheckReport::to_string() const {
  std::string out = ok ? "OK" : "VIOLATION";
  out += complete ? " (exhaustive)" : " (budget exhausted)";
  out += ": " + std::to_string(configurations) + " configurations, " +
         std::to_string(transitions) + " transitions, " +
         std::to_string(terminal_configurations) + " terminal, depth " +
         std::to_string(max_depth);
  for (const auto& v : violations) out += "\n  - " + v;
  return out;
}

ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ModelCheckConfig& config) {
  Checker checker(ring, algorithm, config);
  return checker.run();
}

}  // namespace hring::core
