#include "core/model_checker.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "sim/invariants.hpp"
#include "sim/process.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "words/lyndon.hpp"

namespace hring::core {
namespace {

using sim::Message;
using sim::Process;
using sim::ProcessId;

/// Base B of the rolling link hash. Odd, so every power of B is odd; and
/// B^2 - 1 has 2-adic valuation 3, the least an odd base can have (see the
/// collision paragraph of model_checker.hpp).
constexpr std::uint64_t kLinkBase = 0xFF51AFD7ED558CCDULL;

/// h(m) of the rolling link hash: splitmix64 of the label with the kind in
/// the top three bits, one-to-one on messages whose labels are below 2^61.
[[nodiscard]] std::uint64_t message_hash(const Message& msg) {
  static_assert(sim::kNumMsgKinds <= 8);
  std::uint64_t word =
      msg.label.value() ^ (static_cast<std::uint64_t>(msg.kind) << 61);
  return support::splitmix64(word);
}

/// Flat FIFO message queue of the working configuration. pop is a head
/// bump and popped messages stay in place, so undoing a firing resets the
/// head and truncates the tail.
struct CheckLink {
  std::vector<Message> queue;
  std::size_t head = 0;
  /// Rolling hash of the in-flight messages m_0 (the head) .. m_{len-1}:
  /// Σ h(m_j)·B^(len-1-j) mod 2^64. CheckContext keeps it current.
  std::uint64_t hash = 0;

  [[nodiscard]] bool empty() const { return head == queue.size(); }
  [[nodiscard]] std::size_t size() const { return queue.size() - head; }
  [[nodiscard]] const Message& front() const { return queue[head]; }
  void pop_front() { ++head; }
  void push_back(const Message& msg) { queue.push_back(msg); }
};

/// Visited set of 64-bit configuration hashes: open addressing with linear
/// probing, power-of-two capacity, load at most 1/2. 0 marks an empty slot,
/// so a hash of 0 is kept in a flag of its own.
class HashSet {
 public:
  HashSet() : slots_(kInitialCapacity, 0) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Adds `hash`; false when it was already present.
  // hring-lint: hot-path
  bool insert(std::uint64_t hash) {
    if (hash == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      ++size_;
      return true;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    // The load bound is what ends slot_of's probe: a free slot exists.
    HRING_ASSERT(2 * (size_ + 1) <= slots_.size());
    std::uint64_t& slot = slot_of(hash);
    if (slot == hash) return false;
    slot = hash;
    ++size_;
    return true;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  /// The slot holding `hash`, or else the free slot where it belongs.
  std::uint64_t& slot_of(std::uint64_t hash) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0 && slots_[i] != hash) i = (i + 1) & mask;
    return slots_[i];
  }

  /// Doubles the capacity and re-places every stored hash.
  void grow() {
    const std::vector<std::uint64_t> old = std::exchange(
        slots_, std::vector<std::uint64_t>(2 * slots_.size(), 0));
    for (const std::uint64_t hash : old) {
      if (hash != 0) slot_of(hash) = hash;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;  // stored hashes, the flagged 0 included
  bool has_zero_ = false;
};

/// Context for one firing inside the working configuration. It keeps the
/// rolling hashes of the two links current in O(1) per consume and send.
class CheckContext final : public sim::Context {
 public:
  /// `powers` holds B^0, B^1, ... and at least as many entries as the
  /// longest link holds messages; send() extends it.
  CheckContext(std::vector<CheckLink>& links,
               std::vector<std::uint64_t>& powers, ProcessId pid)
      : links_(links), powers_(powers), pid_(pid) {}

  /// Pops the head m_0: H <- H - h(m_0)·B^(len-1).
  // hring-lint: hot-path
  Message consume() override {
    CheckLink& link = links_[pid_ == 0 ? links_.size() - 1 : pid_ - 1];
    HRING_EXPECTS(!link.empty());
    HRING_EXPECTS(!consumed_);
    consumed_ = true;
    const Message msg = link.front();
    link.hash -= message_hash(msg) * powers_[link.size() - 1];
    link.pop_front();
    return msg;
  }

  /// Appends m: H <- H·B + h(m).
  // hring-lint: hot-path
  void send(const Message& msg) override {
    CheckLink& link = links_[pid_];
    link.push_back(msg);
    link.hash = link.hash * kLinkBase + message_hash(msg);
    if (link.size() > powers_.size()) {
      powers_.push_back(powers_.back() * kLinkBase);
    }
  }

  void note_action(std::string_view) override {}

 private:
  std::vector<CheckLink>& links_;
  std::vector<std::uint64_t>& powers_;
  ProcessId pid_;
  bool consumed_ = false;
};

class Checker {
 public:
  Checker(const ring::LabeledRing& ring, const sim::ProcessFactory& factory,
          const ModelCheckConfig& config)
      : ring_(ring), config_(config) {
    // The enabled set per configuration is a single word-wide bitmask.
    HRING_EXPECTS(ring.size() <= 64);
    HRING_EXPECTS(factory != nullptr);
    links_.resize(ring.size());
    for (ProcessId pid = 0; pid < ring.size(); ++pid) {
      procs_.push_back(factory(pid, ring.label(pid)));
    }
    process_hashes_.resize(ring.size());
    terms_.resize(2 * ring.size());
    // A ring with rotational symmetry has no true leader; only that clause
    // is dropped there.
    if (config_.check_true_leader &&
        !words::has_rotational_symmetry(ring.labels())) {
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
      const std::size_t top = arena_.size();
      procs_[pid]->encode(arena_);
      process_hashes_[pid] = rehash_and_pop(0, top, top);
      set_term(pid, process_hashes_[pid]);
      set_term(link_component(pid), link_hash(links_[pid]));
    }
    visited_.insert(hash_);
    report_.configurations = 1;
    explore(/*depth=*/0, scan_enabled());
    report_.complete = !budget_exhausted_;
    return report_;
  }

 private:
  /// What undo() needs to rewind one firing: the fired process's encode()
  /// words at arena_[record..), the two links' positions and rolling
  /// hashes, the process's hash and the hash terms of the three components
  /// the firing could change.
  struct Undo {
    ProcessId pid;
    std::size_t record;
    std::size_t in_head;
    std::uint64_t in_hash;
    std::size_t out_size;
    std::uint64_t out_hash;
    std::uint64_t hash;
    std::uint64_t proc_hash;
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

  [[nodiscard]] static std::uint64_t bit(ProcessId pid) {
    return std::uint64_t{1} << pid;
  }

  /// Enabled set of the working configuration, every guard evaluated.
  [[nodiscard]] std::uint64_t scan_enabled() const {
    std::uint64_t mask = 0;
    for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
      if (enabled(pid)) mask |= bit(pid);
    }
    return mask;
  }

  /// Enabled set after firing `pid` in a configuration whose set was
  /// `mask`: only pid and its successor are re-evaluated. That is exact
  /// under §II, as for BatchRunner's incremental set
  /// (core/batch_engine.hpp): a guard reads its own process and its
  /// in-link head, and a firing changes only its own process, pops only its
  /// in-link and appends only to its out-link, the successor's in-link.
  [[nodiscard]] std::uint64_t refresh(std::uint64_t mask,
                                      ProcessId pid) const {
    const ProcessId next = pid + 1 == procs_.size() ? 0 : pid + 1;
    mask &= ~(bit(pid) | bit(next));
    if (enabled(pid)) mask |= bit(pid);
    if (enabled(next)) mask |= bit(next);
    return mask;
  }

  /// splitmix64(word ^ i·c), the term of word i of a process's encoding.
  [[nodiscard]] static std::uint64_t word_term(std::uint64_t word,
                                               std::size_t i) {
    constexpr std::uint64_t kPositionMix = 0xC2B2AE3D27D4EB4FULL;  // c
    std::uint64_t mixed = word ^ (i * kPositionMix);
    return support::splitmix64(mixed);
  }

  /// Turns `hash`, the hash of the encode() words at arena_[record, mid),
  /// into the hash of the words pushed since `mid`, and pops those. A
  /// hash is the words' count plus Σ splitmix64(word_i ^ i·c) mod 2^64, so
  /// the empty encoding hashes to 0, and only the positions where the two
  /// encodings differ, or that only one of them has, change a term. No
  /// term waits on another, so the multiplies of consecutive words overlap.
  [[nodiscard]] std::uint64_t rehash_and_pop(std::uint64_t hash,
                                             std::size_t record,
                                             std::size_t mid) {
    const std::uint64_t* const before = arena_.data() + record;
    const std::uint64_t* const after = arena_.data() + mid;
    const std::size_t before_size = mid - record;
    const std::size_t after_size = arena_.size() - mid;
    hash += after_size - before_size;
    const std::size_t common = std::min(before_size, after_size);
    for (std::size_t i = 0; i < common; ++i) {
      if (before[i] != after[i]) {
        hash += word_term(after[i], i) - word_term(before[i], i);
      }
    }
    for (std::size_t i = common; i < before_size; ++i) {
      hash -= word_term(before[i], i);
    }
    for (std::size_t i = common; i < after_size; ++i) {
      hash += word_term(after[i], i);
    }
    arena_.resize(mid);
    return hash;
  }

  /// A link's hash: its rolling hash plus its in-flight count. It depends
  /// on the messages in flight only, not on how many have passed.
  [[nodiscard]] static std::uint64_t link_hash(const CheckLink& link) {
    return link.hash + link.size();
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
  /// the process at the words its encoding changed, its in-link (if it
  /// consumed) and its out-link (if it sent) from their rolling hashes.
  // hring-lint: hot-path
  Undo fire(ProcessId pid) {
    const std::size_t in = in_link(pid);
    CheckLink& inbox = links_[in];
    CheckLink& outbox = links_[pid];
    const Undo step{pid,
                    arena_.size(),
                    inbox.head,
                    inbox.hash,
                    outbox.queue.size(),
                    outbox.hash,
                    hash_,
                    process_hashes_[pid],
                    terms_[pid],
                    terms_[link_component(in)],
                    terms_[link_component(pid)]};
    procs_[pid]->encode(arena_);
    const std::size_t mid = arena_.size();
    {
      CheckContext ctx(links_, powers_, pid);
      procs_[pid]->fire(head_of(pid), ctx);
    }
    procs_[pid]->encode(arena_);
    process_hashes_[pid] = rehash_and_pop(step.proc_hash, step.record, mid);
    set_term(pid, process_hashes_[pid]);
    if (inbox.head != step.in_head) {
      set_term(link_component(in), link_hash(inbox));
    }
    if (outbox.queue.size() != step.out_size) {
      set_term(link_component(pid), link_hash(outbox));
    }
    return step;
  }

  /// Rewinds fire(): the working configuration and its hash are exactly
  /// as fire() found them.
  // hring-lint: hot-path
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
    links_[in].hash = step.in_hash;
    links_[step.pid].queue.resize(step.out_size);
    links_[step.pid].hash = step.out_hash;
    hash_ = step.hash;
    process_hashes_[step.pid] = step.proc_hash;
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

  /// Invariants at entry: the working configuration holds the node, hash_
  /// (already in visited_) is its hash and `enabled_mask` its enabled set.
  /// On return the working configuration, hash_ and the arena are exactly
  /// as at entry.
  void explore(std::size_t depth, std::uint64_t enabled_mask) {
    report_.max_depth = std::max(report_.max_depth, depth);
    if (budget_exhausted_) return;

    if (enabled_mask == 0) {
      // One full scan confirms the incremental set, so a bookkeeping slip
      // aborts instead of filing a live configuration as terminal.
      HRING_ASSERT(scan_enabled() == 0);
      check_terminal();
      return;
    }

    for (ProcessId pid = 0; pid < procs_.size(); ++pid) {
      if ((enabled_mask & bit(pid)) == 0) continue;
      if (visited_.size() >= config_.max_configurations) {
        budget_exhausted_ = true;
        return;
      }
      const sim::SpecState before = sim::SpecState::of(*procs_[pid]);
      const Undo step = fire(pid);
      ++report_.transitions;
      if (!visited_.insert(hash_)) {  // configuration seen
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
      explore(depth + 1, refresh(enabled_mask, pid));
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
  /// B^0, B^1, ...: at least as many powers as the longest link has held
  /// messages.
  std::vector<std::uint64_t> powers_{1};
  /// Current hash of each process's encode() words.
  std::vector<std::uint64_t> process_hashes_;
  /// Current hash term per component (processes, then links) and their
  /// sum, the working configuration's hash.
  std::vector<std::uint64_t> terms_;
  std::uint64_t hash_ = 0;
  std::optional<ring::ProcessIndex> expected_leader_;
  HashSet visited_;
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

ModelCheckReport check_all_schedules(const ring::LabeledRing& ring,
                                     const sim::ProcessFactory& factory,
                                     const ModelCheckConfig& config) {
  Checker checker(ring, factory, config);
  return checker.run();
}

ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ModelCheckConfig& config) {
  return check_all_schedules(ring, election::make_factory(algorithm), config);
}

}  // namespace hring::core
