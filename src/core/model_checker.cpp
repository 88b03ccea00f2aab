#include "core/model_checker.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
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

/// An absent id: no successor state (a step that does not fire), no head
/// message (an empty in-link), or no entry in an IdIndex.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

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

/// A process's hash: its encode() words' count plus
/// Σ splitmix64(word_i ^ i·c) mod 2^64.
[[nodiscard]] std::uint64_t words_hash(std::span<const std::uint64_t> words) {
  constexpr std::uint64_t kPositionMix = 0xC2B2AE3D27D4EB4FULL;  // c
  std::uint64_t hash = words.size();
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t mixed = words[i] ^ (i * kPositionMix);
    hash += support::splitmix64(mixed);
  }
  return hash;
}

/// The term of the configuration hash that component `component` (p_i is
/// component i, link p_i -> p_{i+1} is component n + i) adds when its own
/// hash is `component_hash`.
[[nodiscard]] std::uint64_t component_term(std::size_t component,
                                           std::uint64_t component_hash) {
  std::uint64_t mixed = component_hash ^ (component * 0xD1B54A32D192ED03ULL);
  return support::splitmix64(mixed);
}

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

/// Index of the dense ids 0, 1, ... of a table, each filed under a 64-bit
/// key: open addressing with linear probing, power-of-two capacity, load
/// at most 1/2. A key need not identify its id: find() asks the caller to
/// confirm each id filed under the key, so a table can file its entries
/// under a hash and compare their contents.
class IdIndex {
 public:
  IdIndex() : slots_(kInitialCapacity) {}

  /// The id filed under `key` that `same(id)` accepts, or kNone.
  // hring-lint: hot-path
  template <class Same>
  [[nodiscard]] std::uint32_t find(std::uint64_t key, const Same& same) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key); slots_[i].id != kNone; i = (i + 1) & mask) {
      if (slots_[i].key == key && same(slots_[i].id)) return slots_[i].id;
    }
    return kNone;
  }

  /// Files `id` under `key`.
  void insert(std::uint64_t key, std::uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) {
      const std::vector<Slot> old =
          std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
      for (const Slot& slot : old) {
        if (slot.id != kNone) place(slot);
      }
    }
    place({key, id});
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t id = kNone;
  };
  static constexpr std::size_t kInitialCapacity = 256;

  /// Where a probe for `key` starts: a multiply spreads the key's low bits
  /// upwards and the shift brings its high bits down.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    const std::uint64_t spread = key * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(spread ^ (spread >> 32)) &
           (slots_.size() - 1);
  }

  void place(const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(slot.key);
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The distinct messages of one search, each with its h(m). Links hold
/// the messages' ids.
class MessageTable {
 public:
  [[nodiscard]] const Message& at(std::uint32_t id) const {
    return messages_[id];
  }
  [[nodiscard]] std::uint64_t hash(std::uint32_t id) const {
    return hashes_[id];
  }

  /// The id of `msg`, new if no equal message was met before.
  std::uint32_t intern(const Message& msg) {
    const std::uint64_t hash = message_hash(msg);
    const std::uint32_t found = index_.find(hash, [&](std::uint32_t id) {
      return messages_[id].kind == msg.kind &&
             messages_[id].label.value() == msg.label.value();
    });
    if (found != kNone) return found;
    const auto id = static_cast<std::uint32_t>(messages_.size());
    messages_.push_back(msg);
    hashes_.push_back(hash);
    index_.insert(hash, id);
    return id;
  }

 private:
  std::vector<Message> messages_;
  std::vector<std::uint64_t> hashes_;
  IdIndex index_;
};

/// Context of a firing at discovery: hands the process its in-link head
/// and records whether it consumed it and which messages it sent.
class RecordingContext final : public sim::Context {
 public:
  RecordingContext(const Message* head, MessageTable& messages,
                   std::vector<std::uint32_t>& sent)
      : head_(head), messages_(messages), sent_(sent) {}

  Message consume() override {
    HRING_EXPECTS(head_ != nullptr);
    HRING_EXPECTS(!consumed_);
    consumed_ = true;
    return *head_;
  }

  void send(const Message& msg) override {
    sent_.push_back(messages_.intern(msg));
  }

  void note_action(std::string_view) override {}

  [[nodiscard]] bool consumed() const { return consumed_; }

 private:
  const Message* head_;
  MessageTable& messages_;
  std::vector<std::uint32_t>& sent_;
  bool consumed_ = false;
};

/// One interned local state of one process: its encode() words, the term
/// it adds to the configuration hash, and the process's spec view in it.
struct LocalState {
  std::size_t first;  // its words are words_[first, first + size)
  std::size_t size;
  std::uint64_t term;
  sim::SpecView view;
};

/// What a process does from one local state with one in-link head:
/// nothing, or move to state `next`, consume the head or not, and send
/// the messages whose ids are at [sends_begin, sends_end) of the memo's
/// send list.
struct LocalStep {
  std::uint32_t next = kNone;  // kNone: halted, or no guard holds
  std::uint32_t sends_begin = 0;
  std::uint32_t sends_end = 0;
  bool consumes = false;

  [[nodiscard]] bool enabled() const { return next != kNone; }
};

/// Memo of one search's local steps. Each process's local states are
/// interned by their encode() words, and each (state, head) pair met maps
/// to one LocalStep. A pair is discovered once: the process is decoded
/// into the state, asked enabled() and, if enabled, fired and re-encoded.
/// Processes with equal encodings behave identically (the encode()
/// contract, sim/process.hpp), so the step holds wherever the pair meets
/// again.
class LocalStepMemo {
 public:
  LocalStepMemo(const ring::LabeledRing& ring,
                const sim::ProcessFactory& factory) {
    HRING_EXPECTS(factory != nullptr);
    for (ProcessId pid = 0; pid < ring.size(); ++pid) {
      procs_.push_back(factory(pid, ring.label(pid)));
    }
  }

  /// p_pid's state as the factory built it.
  std::uint32_t initial_state(ProcessId pid) { return intern(pid); }

  [[nodiscard]] const LocalState& state(std::uint32_t id) const {
    return states_[id];
  }
  [[nodiscard]] const LocalStep& step(std::uint32_t id) const {
    return steps_[id];
  }
  [[nodiscard]] std::span<const std::uint32_t> sends(
      const LocalStep& step) const {
    return {sent_.data() + step.sends_begin,
            sent_.data() + step.sends_end};
  }
  [[nodiscard]] std::uint64_t message_hash(std::uint32_t id) const {
    return messages_.hash(id);
  }

  /// The step of a process in local state `state` whose in-link head is
  /// message `head` (kNone for an empty link), discovered if the pair is
  /// new.
  // hring-lint: hot-path
  std::uint32_t step_of(std::uint32_t state, std::uint32_t head) {
    const std::uint64_t key = (std::uint64_t{state} << 32) | head;
    const std::uint32_t found =
        step_index_.find(key, [](std::uint32_t) { return true; });
    return found != kNone ? found : discover(key, state, head);
  }

 private:
  std::uint32_t discover(std::uint64_t key, std::uint32_t state,
                         std::uint32_t head) {
    const ProcessId pid = states_[state].view.pid;
    Process& p = *procs_[pid];
    load(p, state);
    LocalStep step;
    step.sends_begin = static_cast<std::uint32_t>(sent_.size());
    if (!p.halted()) {
      // A copy: sending may grow the message table under the reference.
      std::optional<Message> held;
      if (head != kNone) held = messages_.at(head);
      const Message* const msg = held.has_value() ? &*held : nullptr;
      if (p.enabled(msg)) {
        RecordingContext ctx(msg, messages_, sent_);
        p.fire(msg, ctx);
        step.consumes = ctx.consumed();
        step.next = intern(pid);
      }
    }
    step.sends_end = static_cast<std::uint32_t>(sent_.size());
    HRING_ASSERT(steps_.size() < kNone);
    const auto id = static_cast<std::uint32_t>(steps_.size());
    steps_.push_back(step);
    step_index_.insert(key, id);
    return id;
  }

  /// Decodes `state` into `p`, which must then hold exactly that state: by
  /// the encode() contract, a process whose encoding equals the stored
  /// words behaves as the state does.
  void load(Process& p, std::uint32_t state) {
    const LocalState& s = states_[state];
    const std::uint64_t* const first = words_.data() + s.first;
    const std::uint64_t* const last = first + s.size;
    const std::uint64_t* it = first;
    const bool restored = p.decode(it, last);
    // The factory's processes must support restoration (A_k, B_k and the
    // identified-ring baselines implement decode()), decode() must consume
    // exactly the words encode() wrote, and restore every one of them.
    HRING_EXPECTS(restored);
    HRING_EXPECTS(it == last);
    scratch_.clear();
    p.encode(scratch_);
    const bool decode_restored_every_word =
        std::equal(first, last, scratch_.begin(), scratch_.end());
    HRING_EXPECTS(decode_restored_every_word);
  }

  /// The id of the state p_pid holds, interned by its encode() words.
  std::uint32_t intern(ProcessId pid) {
    const Process& p = *procs_[pid];
    scratch_.clear();
    p.encode(scratch_);
    const std::uint64_t term = component_term(pid, words_hash(scratch_));
    const std::uint32_t found = state_index_.find(term, [&](std::uint32_t id) {
      const LocalState& s = states_[id];
      const auto first = words_.begin() + static_cast<std::ptrdiff_t>(s.first);
      return s.view.pid == pid &&
             std::equal(scratch_.begin(), scratch_.end(), first,
                        first + static_cast<std::ptrdiff_t>(s.size));
    });
    if (found != kNone) return found;
    HRING_ASSERT(states_.size() < kNone);
    const auto id = static_cast<std::uint32_t>(states_.size());
    states_.push_back(
        {words_.size(), scratch_.size(), term, sim::SpecView::of(p)});
    words_.insert(words_.end(), scratch_.begin(), scratch_.end());
    state_index_.insert(term, id);
    return id;
  }

  /// One process per position, the ring's label its id: a scratch that
  /// discovery decodes, asks and fires.
  std::vector<std::unique_ptr<Process>> procs_;
  /// encode() words of every interned state, back to back.
  std::vector<std::uint64_t> words_;
  std::vector<LocalState> states_;
  /// States filed under their terms, which mix the position in.
  IdIndex state_index_;
  std::vector<LocalStep> steps_;
  /// Steps filed under state << 32 | head.
  IdIndex step_index_;
  /// Ids of the messages each step sends, step after step.
  std::vector<std::uint32_t> sent_;
  MessageTable messages_;
  /// One encoding, reused.
  std::vector<std::uint64_t> scratch_;
};

/// Flat FIFO of message ids in the working configuration. pop is a head
/// bump and popped ids stay in place, so undoing a firing resets the head
/// and truncates the tail.
struct CheckLink {
  std::vector<std::uint32_t> queue;
  std::size_t head = 0;
  /// Rolling hash of the in-flight messages m_0 (the head) .. m_{len-1}:
  /// Σ h(m_j)·B^(len-1-j) mod 2^64.
  std::uint64_t hash = 0;
  /// The link's term of the configuration hash.
  std::uint64_t term = 0;

  [[nodiscard]] bool empty() const { return head == queue.size(); }
  [[nodiscard]] std::size_t size() const { return queue.size() - head; }
  [[nodiscard]] std::uint32_t front() const { return queue[head]; }
};

class Checker {
 public:
  Checker(const ring::LabeledRing& ring, const sim::ProcessFactory& factory,
          const ModelCheckConfig& config)
      : config_(config), memo_(ring, factory) {
    state_.resize(ring.size());
    step_.resize(ring.size());
    links_.resize(ring.size());
    // A ring with rotational symmetry has no true leader; only that clause
    // is dropped there.
    if (config_.check_true_leader &&
        !words::has_rotational_symmetry(ring.labels())) {
      expected_leader_ = ring.true_leader();
    }
  }

  ModelCheckReport run() {
    for (ProcessId pid = 0; pid < state_.size(); ++pid) {
      state_[pid] = memo_.initial_state(pid);
      hash_ += memo_.state(state_[pid]).term;
      set_term(pid, links_[pid]);
    }
    const auto report = [this](const std::string& what) {
      fail(what + " at initial configuration");
    };
    for (ProcessId pid = 0; pid < state_.size(); ++pid) {
      sim::check_initial(view(pid), report);
    }
    check_configuration(report);
    visited_.insert(hash_);
    report_.configurations = 1;
    for (ProcessId pid = 0; pid < state_.size(); ++pid) {
      step_[pid] = memo_.step_of(state_[pid], head_of(pid));
    }
    explore(/*depth=*/0, scan_enabled());
    report_.complete = !budget_exhausted_;
    for (std::size_t i = 0; i < clauses_.size(); ++i) {
      if (clauses_[i].second > 0) {
        report_.violations[i] +=
            " (+" + std::to_string(clauses_[i].second) + " more)";
      }
    }
    return report_;
  }

 private:
  /// What undo() needs to rewind one firing: the fired process's state
  /// before it, its two links' positions, rolling hashes and terms, and
  /// the configuration hash.
  struct Undo {
    ProcessId pid;
    std::uint32_t state;
    std::size_t in_head;
    std::uint64_t in_hash;
    std::uint64_t in_term;
    std::size_t out_size;
    std::uint64_t out_hash;
    std::uint64_t out_term;
    std::uint64_t hash;
  };

  /// Files a violation under its clause, the text before " at depth" or
  /// " at initial configuration": the first message of each of up to 16
  /// clauses is kept, and later configurations meeting it are counted.
  void fail(const std::string& what) {
    report_.ok = false;
    const std::string clause = what.substr(
        0, std::min(what.find(" at depth"),
                    what.find(" at initial configuration")));
    for (auto& [seen, more] : clauses_) {
      if (seen == clause) {
        ++more;
        return;
      }
    }
    if (clauses_.size() < 16) {
      clauses_.emplace_back(clause, 0);
      report_.violations.push_back(what);
    }
  }

  [[nodiscard]] std::size_t in_link(ProcessId pid) const {
    return ring::left(pid, links_.size());
  }

  [[nodiscard]] ProcessId successor(ProcessId pid) const {
    return ring::right(pid, state_.size());
  }

  /// Id of p_pid's in-link head, kNone when the link is empty.
  [[nodiscard]] std::uint32_t head_of(ProcessId pid) const {
    const CheckLink& link = links_[in_link(pid)];
    return link.empty() ? kNone : link.front();
  }

  [[nodiscard]] static std::uint64_t bit(ProcessId pid) {
    return std::uint64_t{1} << pid;
  }

  /// Enabled set of the working configuration, every step looked up
  /// afresh from the processes' states and heads.
  [[nodiscard]] std::uint64_t scan_enabled() {
    std::uint64_t mask = 0;
    for (ProcessId pid = 0; pid < state_.size(); ++pid) {
      if (memo_.step(memo_.step_of(state_[pid], head_of(pid))).enabled()) {
        mask |= bit(pid);
      }
    }
    return mask;
  }

  /// The enabled set after the firing that `record` rewinds, `mask` being
  /// the set before it. Only the fired process's step is looked up again,
  /// and its successor's if the firing sent into the successor's empty
  /// in-link. That is exact under §II, as for BatchRunner's incremental
  /// set (core/batch_engine.hpp): a guard reads its own process and its
  /// in-link head, and a firing changes only its own process, pops only
  /// its in-link and appends only to its out-link, whose head changes only
  /// if it was empty.
  std::uint64_t refresh(std::uint64_t mask, const Undo& record) {
    const ProcessId pid = record.pid;
    step_[pid] = memo_.step_of(state_[pid], head_of(pid));
    mask &= ~bit(pid);
    if (memo_.step(step_[pid]).enabled()) mask |= bit(pid);
    const CheckLink& outbox = links_[pid];
    if (outbox.head == record.out_size && !outbox.empty()) {
      const ProcessId next = successor(pid);
      step_[next] = memo_.step_of(state_[next], outbox.front());
      mask &= ~bit(next);
      if (memo_.step(step_[next]).enabled()) mask |= bit(next);
    }
    return mask;
  }

  /// Makes `link`'s term of the configuration hash match its contents: the
  /// link's hash is its rolling hash plus its in-flight count, so it
  /// depends on the messages in flight only, not on how many have passed.
  void set_term(std::size_t link_index, CheckLink& link) {
    const std::uint64_t term =
        component_term(state_.size() + link_index, link.hash + link.size());
    hash_ += term - link.term;
    link.term = term;
  }

  /// Fires `pid`'s memoized step in the working configuration: the process
  /// takes the step's successor state, and its in-link (if the step
  /// consumes) and out-link (if it sends) change, their rolling hashes in
  /// O(1) per message. The configuration hash changes by the difference of
  /// the three components' terms.
  // hring-lint: hot-path
  Undo fire(ProcessId pid) {
    const LocalStep& step = memo_.step(step_[pid]);
    const std::size_t in = in_link(pid);
    CheckLink& inbox = links_[in];
    CheckLink& outbox = links_[pid];
    const Undo record{pid,         state_[pid], inbox.head,
                      inbox.hash,  inbox.term,  outbox.queue.size(),
                      outbox.hash, outbox.term, hash_};
    hash_ += memo_.state(step.next).term - memo_.state(state_[pid]).term;
    state_[pid] = step.next;
    if (step.consumes) {
      // Pops the head m_0: H <- H - h(m_0)·B^(len-1).
      inbox.hash -=
          memo_.message_hash(inbox.front()) * powers_[inbox.size() - 1];
      ++inbox.head;
      set_term(in, inbox);
    }
    const std::span<const std::uint32_t> sends = memo_.sends(step);
    if (!sends.empty()) {
      // Appends each m: H <- H·B + h(m).
      for (const std::uint32_t msg : sends) {
        outbox.queue.push_back(msg);
        outbox.hash = outbox.hash * kLinkBase + memo_.message_hash(msg);
      }
      while (powers_.size() < outbox.size()) {
        powers_.push_back(powers_.back() * kLinkBase);
      }
      set_term(pid, outbox);
    }
    return record;
  }

  /// Rewinds fire(): the working configuration and its hash are exactly
  /// as fire() found them.
  // hring-lint: hot-path
  void undo(const Undo& record) {
    state_[record.pid] = record.state;
    CheckLink& inbox = links_[in_link(record.pid)];
    inbox.head = record.in_head;
    inbox.hash = record.in_hash;
    inbox.term = record.in_term;
    CheckLink& outbox = links_[record.pid];
    outbox.queue.resize(record.out_size);
    outbox.hash = record.out_hash;
    outbox.term = record.out_term;
    hash_ = record.hash;
  }

  /// p_pid as the spec clauses read it, from its interned state.
  [[nodiscard]] const sim::SpecView& view(ProcessId pid) const {
    return memo_.state(state_[pid]).view;
  }

  /// §II's per-configuration clauses on the working configuration.
  template <class Report>
  void check_configuration(Report&& report) const {
    sim::check_configuration(
        state_.size(),
        [this](ProcessId q) -> const sim::SpecView& { return view(q); },
        report);
  }

  /// Bullet 2 on a terminal configuration, which must also have drained
  /// every link.
  void check_terminal() {
    ++report_.terminal_configurations;
    if (std::any_of(links_.begin(), links_.end(),
                    [](const CheckLink& link) { return !link.empty(); })) {
      fail("message left in flight at terminal configuration");
    }
    sim::check_terminal(
        state_.size(),
        [this](ProcessId q) -> const sim::SpecView& { return view(q); },
        expected_leader_, [this](const std::string& what) { fail(what); });
  }

  /// Invariants at entry: the working configuration holds the node, hash_
  /// (already in visited_) is its hash, step_ holds each process's step in
  /// it and `enabled_mask` its enabled set. On return all of them are
  /// exactly as at entry.
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

    for (ProcessId pid = 0; pid < state_.size(); ++pid) {
      if ((enabled_mask & bit(pid)) == 0) continue;
      if (visited_.size() >= config_.max_configurations) {
        budget_exhausted_ = true;
        return;
      }
      const Undo record = fire(pid);
      ++report_.transitions;
      if (!visited_.insert(hash_)) {  // configuration seen
        undo(record);
        continue;
      }
      ++report_.configurations;
      // Only the fired process changed: the transition clause needs no
      // other process.
      const auto report = [this, depth](const std::string& what) {
        fail(what + " at depth " + std::to_string(depth + 1));
      };
      sim::check_transition(memo_.state(record.state).view.state, view(pid),
                            report);
      check_configuration(report);
      const ProcessId next = successor(pid);
      const std::uint32_t pid_step = step_[pid];
      const std::uint32_t next_step = step_[next];
      explore(depth + 1, refresh(enabled_mask, record));
      step_[pid] = pid_step;
      step_[next] = next_step;
      undo(record);
    }
  }

  ModelCheckConfig config_;
  LocalStepMemo memo_;
  /// The working configuration: each process's interned state and its
  /// memoized step there, and the links.
  std::vector<std::uint32_t> state_;
  std::vector<std::uint32_t> step_;
  std::vector<CheckLink> links_;
  /// B^0, B^1, ...: at least as many powers as the longest link has held
  /// messages.
  std::vector<std::uint64_t> powers_{1};
  /// The working configuration's hash, the sum of its components' terms.
  std::uint64_t hash_ = 0;
  std::optional<ring::ProcessIndex> expected_leader_;
  HashSet visited_;
  ModelCheckReport report_;
  /// Each violated clause with the number of further configurations that
  /// met it; clauses_[i] is filed as report_.violations[i].
  std::vector<std::pair<std::string, std::uint64_t>> clauses_;
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
  // The enabled set per configuration is a single word-wide bitmask.
  HRING_EXPECTS(ring.size() <= kMaxModelCheckProcesses);
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
