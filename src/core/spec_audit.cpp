#include "core/spec_audit.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "sim/invariants.hpp"
#include "sim/link.hpp"
#include "sim/message.hpp"
#include "support/assert.hpp"

namespace hring::core {
namespace {

using sim::ActionEvent;
using sim::ExecutionView;
using sim::Label;
using sim::Message;
using sim::MsgKind;
using sim::Process;
using sim::ProcessId;

/// [send-burst] bound on messages per firing.
constexpr std::size_t kMaxSendsPerFiring = 4;
/// Step budget per audited run.
constexpr std::uint64_t kStepBudget = 1'000'000;

/// FNV-1a over a process's observable state: the encode() words (spec
/// variables plus whatever the implementation appends) and the
/// debug_state() rendering (which every algorithm keeps faithful to its
/// internal variables). Collisions would mask a locality violation, but a
/// 64-bit accidental collision on a mutated state is not a realistic miss.
std::uint64_t state_hash(const Process& proc) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  std::vector<std::uint64_t> encoded;
  proc.encode(encoded);
  for (const std::uint64_t word : encoded) mix(word);
  for (const char c : proc.debug_state()) mix(static_cast<std::uint8_t>(c));
  return h;
}

/// One line per firing: "p2 A3 <TOKEN,5> -> <TOKEN,5> <FINISH>". The
/// replay check compares these lines; keeping them human-readable makes
/// the divergence report directly actionable.
std::string firing_line(const ActionEvent& event) {
  std::string line = "p";
  line += std::to_string(event.pid);
  if (!event.action.empty()) {
    line += ' ';
    line += event.action;
  }
  if (event.consumed.has_value()) {
    line += ' ';
    line += to_string(*event.consumed);
  }
  line += " ->";
  for (const Message& msg : event.sent) {
    line += ' ';
    line += to_string(msg);
  }
  return line;
}

/// Raw-representation message equality: the auditor's own bookkeeping must
/// not count toward the algorithm's label-comparison statistic.
bool same_message(const Message& a, const Message& b) {
  return a.kind == b.kind && a.label.value() == b.label.value();
}

/// Observer implementing the per-firing checks. `record_only` turns every
/// check off and keeps just the transition log (the replay run).
class AuditObserver final : public sim::Observer {
 public:
  AuditObserver(std::size_t label_bits,
                std::optional<std::size_t> space_bound_bits,
                bool record_only)
      : label_bits_(label_bits),
        space_bound_bits_(space_bound_bits),
        record_only_(record_only) {}

  void on_start(const ExecutionView& view) override {
    const std::size_t n = view.process_count();
    shadow_links_.resize(n);
    for (sim::Link& link : shadow_links_) link.reset();
    hashes_.resize(n);
    for (ProcessId pid = 0; pid < n; ++pid) {
      hashes_[pid] = state_hash(view.process(pid));
    }
  }

  void on_action(const ExecutionView& view, const ActionEvent& event) override {
    ++firings_;
    messages_ += event.sent.size();
    log_.push_back(firing_line(event));
    if (record_only_) return;

    const std::size_t n = view.process_count();
    std::string who = "p";
    who += std::to_string(event.pid);

    audit_fifo(event, n, who);

    for (const Message& msg : event.sent) {
      peak_message_bits_ =
          std::max(peak_message_bits_, message_bits(msg, label_bits_));
      if (msg.kind != MsgKind::kFinish && label_bits_ < 64 &&
          (msg.label.value() >> label_bits_) != 0) {
        report("[message-width] " + who + " sent " + to_string(msg) +
               " whose payload does not fit the ring's b=" +
               std::to_string(label_bits_) + " label bits");
      }
    }

    if (event.sent.size() > kMaxSendsPerFiring) {
      report("[send-burst] " + who + " sent " +
             std::to_string(event.sent.size()) +
             " messages in one firing (bound " +
             std::to_string(kMaxSendsPerFiring) + ")");
    }

    for (ProcessId q = 0; q < n; ++q) {
      if (q == event.pid) continue;
      const std::uint64_t h = state_hash(view.process(q));
      if (h != hashes_[q]) {
        report("[locality] firing of " + who + " (step " +
               std::to_string(event.step) + ") mutated p" +
               std::to_string(q) + "'s state");
        hashes_[q] = h;  // report each remote mutation once
      }
    }
    hashes_[event.pid] = state_hash(view.process(event.pid));

    const std::size_t space =
        view.process(event.pid).space_bits(label_bits_);
    peak_space_bits_ = std::max(peak_space_bits_, space);
    if (space_bound_bits_.has_value() && space > *space_bound_bits_ &&
        !space_reported_) {
      space_reported_ = true;
      report("[space] " + who + " reached " + std::to_string(space) +
             " bits, above the paper's bound of " +
             std::to_string(*space_bound_bits_) + " bits");
    }
  }

  void on_finish(const ExecutionView& view) override {
    if (record_only_) return;
    // Messages left in a shadow queue at the end of a *clean* run would
    // mean the engine delivered something the sender never sent; cross-
    // check against the real links instead of assuming.
    for (ProcessId pid = 0; pid < view.process_count(); ++pid) {
      if (shadow_links_[pid].size() != view.out_link(pid).size()) {
        report("[fifo] link p" + std::to_string(pid) +
               " holds " + std::to_string(view.out_link(pid).size()) +
               " messages but " + std::to_string(shadow_links_[pid].size()) +
               " were sent and not received");
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  [[nodiscard]] std::uint64_t firings() const { return firings_; }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::size_t peak_space_bits() const {
    return peak_space_bits_;
  }
  [[nodiscard]] std::size_t peak_message_bits() const {
    return peak_message_bits_;
  }

 private:
  void audit_fifo(const ActionEvent& event, std::size_t n,
                  const std::string& who) {
    if (event.consumed.has_value()) {
      sim::Link& in_shadow = shadow_links_[ring::left(event.pid, n)];
      const Message* expected = in_shadow.head();
      if (expected == nullptr) {
        report("[fifo] " + who + " received " + to_string(*event.consumed) +
               " but its in-link's send log is empty");
      } else {
        if (!same_message(*expected, *event.consumed)) {
          report("[fifo] " + who + " received " +
                 to_string(*event.consumed) + " but FIFO order expected " +
                 to_string(*expected));
        }
        in_shadow.pop();
      }
    }
    for (const Message& msg : event.sent) shadow_links_[event.pid].push(msg);
  }

  void report(std::string what) {
    if (violations_.size() < kMaxViolations) {
      violations_.push_back(std::move(what));
    }
  }

  static constexpr std::size_t kMaxViolations = 64;

  std::size_t label_bits_;
  std::optional<std::size_t> space_bound_bits_;
  bool record_only_;

  std::vector<sim::Link> shadow_links_;  // [i]: p_i -> p_{i+1}
  std::vector<std::uint64_t> hashes_;
  std::vector<std::string> log_;
  std::vector<std::string> violations_;
  std::uint64_t firings_ = 0;
  std::uint64_t messages_ = 0;
  std::size_t peak_space_bits_ = 0;
  std::size_t peak_message_bits_ = 0;
  bool space_reported_ = false;
};

sim::RunResult run_once(sim::StepEngine& engine, const ring::LabeledRing& ring,
                        const sim::ProcessFactory& factory,
                        const SpecAuditConfig& config,
                        AuditObserver& auditor, sim::SpecMonitor* monitor) {
  sim::StepConfig step_config;
  step_config.max_steps = kStepBudget;
  engine.prepare(ring, factory, sim::Scheduler(config.scheduler, config.seed),
                 step_config);
  engine.add_observer(&auditor);
  if (monitor != nullptr) engine.add_observer(monitor);
  return engine.run();
}

}  // namespace

std::string SpecAuditReport::summary() const {
  std::string out = ok() ? "ok" : "FAIL(" +
                                      std::to_string(violations.size()) +
                                      " violations)";
  out += " | outcome=" + std::string(sim::outcome_name(outcome));
  out += " firings=" + std::to_string(firings);
  out += " messages=" + std::to_string(messages);
  out += " space=" + std::to_string(peak_space_bits);
  if (space_bound_bits.has_value()) {
    out += '/';
    out += std::to_string(*space_bound_bits);
  }
  out += " bits, msg<=" + std::to_string(peak_message_bits) + "/" +
         std::to_string(message_bits_bound) + " bits";
  if (replay_ran) out += ", replayed";
  return out;
}

std::optional<std::size_t> paper_space_bound_bits(
    const election::AlgorithmConfig& algorithm, std::size_t n,
    std::size_t b) {
  switch (algorithm.id) {
    case election::AlgorithmId::kAk:
      return ak_space_bound(n, algorithm.k, b);
    case election::AlgorithmId::kBk:
      return bk_space_bound(algorithm.k, b);
    case election::AlgorithmId::kChangRoberts:
    case election::AlgorithmId::kLeLann:
    case election::AlgorithmId::kPeterson:
      return std::nullopt;
  }
  HRING_ASSERT(false);
}

SpecAuditReport audit_factory(const ring::LabeledRing& ring,
                              const sim::ProcessFactory& factory,
                              const SpecAuditConfig& config,
                              std::optional<std::size_t> space_bound_bits) {
  HRING_EXPECTS(factory != nullptr);
  const std::size_t b = ring.label_bits();

  // One engine serves both the primary and the replay run: the replay
  // recycles the primary's links, counters and firing buffers, and doubles
  // as a test that recycled executions behave identically to fresh ones.
  sim::StepEngine engine;
  AuditObserver auditor(b, space_bound_bits, /*record_only=*/false);
  sim::SpecMonitor monitor;
  const sim::RunResult result =
      run_once(engine, ring, factory, config, auditor, &monitor);

  SpecAuditReport report;
  report.outcome = result.outcome;
  report.firings = auditor.firings();
  report.messages = auditor.messages();
  report.peak_space_bits = auditor.peak_space_bits();
  report.space_bound_bits = space_bound_bits;
  report.peak_message_bits = auditor.peak_message_bits();
  report.message_bits_bound = message_bits(Message::token(Label{}), b);
  report.violations = auditor.violations();
  for (const std::string& v : monitor.violations()) {
    report.violations.push_back("[spec] " + v);
  }
  if (result.outcome != sim::Outcome::kTerminated) {
    report.violations.push_back(
        "[termination] run ended with outcome=" +
        std::string(sim::outcome_name(result.outcome)) +
        " instead of a clean terminal configuration");
  }

  AuditObserver replay(b, space_bound_bits, /*record_only=*/true);
  (void)run_once(engine, ring, factory, config, replay, nullptr);
  report.replay_ran = true;
  const auto& first = auditor.log();
  const auto& second = replay.log();
  const std::size_t common = std::min(first.size(), second.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (first[i] != second[i]) {
      report.violations.push_back(
          "[replay] firing " + std::to_string(i) + " diverged: \"" +
          first[i] + "\" vs \"" + second[i] + "\"");
      break;
    }
  }
  if (first.size() != second.size()) {
    report.violations.push_back(
        "[replay] transition logs have different lengths (" +
        std::to_string(first.size()) + " vs " +
        std::to_string(second.size()) + " firings)");
  }
  return report;
}

SpecAuditReport audit_algorithm(const ring::LabeledRing& ring,
                                const election::AlgorithmConfig& algorithm,
                                const SpecAuditConfig& config) {
  return audit_factory(
      ring, election::make_factory(algorithm), config,
      paper_space_bound_bits(algorithm, ring.size(), ring.label_bits()));
}

}  // namespace hring::core
