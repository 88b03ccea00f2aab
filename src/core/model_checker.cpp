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

using sim::Message;
using sim::Process;
using sim::ProcessId;

/// Flat FIFO message queue of the working configuration. pop is a head
/// bump and popped messages stay in place, so undoing a firing resets the
/// head and truncates the tail.
struct CheckLink {
  std::vector<Message> queue;
  std::size_t head = 0;

  [[nodiscard]] bool empty() const { return head == queue.size(); }
  [[nodiscard]] std::size_t size() const { return queue.size() - head; }
  [[nodiscard]] const Message& front() const { return queue[head]; }
  void pop_front() { ++head; }
  void push_back(const Message& msg) { queue.push_back(msg); }
};

/// splitmix64 chain over a component's words.
struct WordHash {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;

  void absorb(std::uint64_t word) {
    std::uint64_t mixed = state ^ word;
    state = support::splitmix64(mixed);
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
    terms_.resize(2 * ring.size());
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
    for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
      set_term(pid, hash_process(pid));
      set_term(link_component(pid), hash_link(links_[pid]));
    }
    visited_.insert(hash_);
    report_.configurations = 1;
    explore(/*depth=*/0);
    report_.complete = !budget_exhausted_;
    return report_;
  }

 private:
  /// What undo() needs to rewind one firing: the fired process's encode()
  /// words at arena_[record..), the two link positions and the hash terms
  /// of the three components the firing could change.
  struct Undo {
    ProcessId pid;
    std::size_t record;
    std::size_t in_head;
    std::size_t out_size;
    std::uint64_t hash;
    std::uint64_t proc_term;
    std::uint64_t in_term;
    std::uint64_t out_term;
  };

  void fail(const std::string& what) {
    report_.ok = false;
    if (report_.violations.size() < 16) report_.violations.push_back(what);
  }

  [[nodiscard]] std::size_t in_link(ProcessId pid) const {
    return pid == 0 ? links_.size() - 1 : pid - 1;
  }

  /// Hash-component index of link p_i -> p_{i+1}; processes take 0..n-1.
  [[nodiscard]] std::size_t link_component(std::size_t link) const {
    return procs_.size() + link;
  }

  [[nodiscard]] const Message* head_of(ProcessId pid) const {
    const CheckLink& link = links_[in_link(pid)];
    return link.empty() ? nullptr : &link.front();
  }

  [[nodiscard]] bool enabled(ProcessId pid) const {
    const Process& p = *procs_[pid];
    return !p.halted() && p.enabled(head_of(pid));
  }

  /// Hash of a process's encode() words, encoded briefly on the arena top.
  [[nodiscard]] std::uint64_t hash_process(ProcessId pid) {
    const std::size_t top = arena_.size();
    procs_[pid]->encode(arena_);
    WordHash hash;
    for (std::size_t i = top; i < arena_.size(); ++i) hash.absorb(arena_[i]);
    arena_.resize(top);
    return hash.state;
  }

  /// Hash of a link's in-flight count followed by its (kind, label) pairs.
  [[nodiscard]] static std::uint64_t hash_link(const CheckLink& link) {
    WordHash hash;
    hash.absorb(link.size());
    for (std::size_t i = link.head; i < link.queue.size(); ++i) {
      hash.absorb(static_cast<std::uint64_t>(link.queue[i].kind));
      hash.absorb(link.queue[i].label.value());
    }
    return hash.state;
  }

  /// The configuration hash is Σ mix(component, component hash) mod 2^64,
  /// so replacing one component's term updates it in O(1).
  void set_term(std::size_t component, std::uint64_t component_hash) {
    std::uint64_t mixed =
        component_hash ^ (component * 0xD1B54A32D192ED03ULL);
    const std::uint64_t term = support::splitmix64(mixed);
    hash_ += term - terms_[component];
    terms_[component] = term;
  }

  /// Fires `pid` in the working configuration, pushing its pre-firing
  /// encoding as the undo record, and re-hashes the components it changed:
  /// the process, its in-link (if it consumed) and its out-link (if it
  /// sent).
  Undo fire(ProcessId pid) {
    const std::size_t in = in_link(pid);
    CheckLink& inbox = links_[in];
    CheckLink& outbox = links_[pid];
    const Undo step{pid,
                    arena_.size(),
                    inbox.head,
                    outbox.queue.size(),
                    hash_,
                    terms_[pid],
                    terms_[link_component(in)],
                    terms_[link_component(pid)]};
    procs_[pid]->encode(arena_);
    {
      CheckContext ctx(links_, pid);
      procs_[pid]->fire(head_of(pid), ctx);
    }
    set_term(pid, hash_process(pid));
    if (inbox.head != step.in_head) {
      set_term(link_component(in), hash_link(inbox));
    }
    if (outbox.queue.size() != step.out_size) {
      set_term(link_component(pid), hash_link(outbox));
    }
    return step;
  }

  /// Rewinds fire(): the working configuration and its hash are exactly
  /// as fire() found them.
  void undo(const Undo& step) {
    const std::uint64_t* it = arena_.data() + step.record;
    const std::uint64_t* const end = arena_.data() + arena_.size();
    const bool restored = procs_[step.pid]->decode(it, end);
    // The factory's processes must support restoration (A_k, B_k and
    // the identified-ring baselines implement decode()), and decode()
    // must consume exactly the words encode() wrote.
    HRING_EXPECTS(restored);
    HRING_EXPECTS(it == end);
    arena_.resize(step.record);
    const std::size_t in = in_link(step.pid);
    links_[in].head = step.in_head;
    links_[step.pid].queue.resize(step.out_size);
    hash_ = step.hash;
    terms_[step.pid] = step.proc_term;
    terms_[link_component(in)] = step.in_term;
    terms_[link_component(step.pid)] = step.out_term;
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

  /// Invariants at entry: the working configuration holds the node, and
  /// hash_ (already in visited_) is its hash. On return the working
  /// configuration, hash_ and the arena are exactly as at entry.
  void explore(std::size_t depth) {
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
      const sim::SpecState before = sim::SpecState::of(*procs_[pid]);
      const Undo step = fire(pid);
      ++report_.transitions;
      if (!visited_.insert(hash_).second) {  // configuration seen
        undo(step);
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
      explore(depth + 1);
      undo(step);
    }
  }

  const ring::LabeledRing& ring_;
  ModelCheckConfig config_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<CheckLink> links_;
  /// LIFO undo arena: the fired process's encode() words, one record per
  /// DFS level, appended on descent and popped on backtrack.
  std::vector<std::uint64_t> arena_;
  /// Current hash term per component (processes, then links) and their
  /// sum, the working configuration's hash.
  std::vector<std::uint64_t> terms_;
  std::uint64_t hash_ = 0;
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
