// Exhaustive schedule exploration for small rings.
//
// The randomized daemons sample the space of asynchronous executions;
// this checker *enumerates* it. Starting from the initial configuration
// it explores every interleaving of single-process firings, deduplicating
// configurations by a hash of the complete global state (all local states
// plus all link contents), and checks on every reachable configuration:
//
//   * at most one process has isLeader (spec bullet 1);
//   * isLeader and done never revert, halting implies done (bullets 1/3/4);
//   * done implies a current leader carries the believed label (bullet 3);
//   * every terminal configuration has empty links and meets bullet 2
//     (sim::check_terminal, verify_election's clause): all done and
//     halted, one leader with global agreement, the true leader unless the
//     ring has rotational symmetry and so has none.
//
// Single-firing interleavings suffice: a §II step executes a set of
// enabled processes, but distinct processes touch disjoint state (a
// process pops only its own in-link head, appends only to its own
// out-link tail), so every subset step equals some sequence of single
// firings and reaches the same configuration — any safety violation a
// subset step could produce is visible at the end of that sequence.
//
// The state space of a terminating algorithm is finite (each message is
// received once), so exploration terminates; `max_configurations` bounds
// the search anyway and the report says whether it was exhaustive.
//
// The search memoizes local steps. Under §II a firing is a function of
// the process's own state and its in-link head: it moves the process to a
// new state, consumes the head or not, and appends messages to its
// out-link. So the checker interns each process's local states by their
// encode() words and maps each (process, state, in-link head or none)
// pair to one step: enabled or not, the successor state, whether the head
// is consumed, and the messages sent. A pair is discovered the first time
// it is met: the process (one per position, built once from the factory)
// is decoded into the state, asked enabled() and, if enabled, fired with a
// context that records the consume and the sends, and re-encoded; the new
// encoding is interned as the successor state. That is the only place a
// Process method runs. The messages are interned too, so a link is a flat
// queue of message ids.
//
// This is sound because of the encode() contract (sim/process.hpp): two
// processes with equal encodings behave identically. A state is interned
// by its position and all of its words, and the position fixes the
// process's label, so one step serves every configuration in which the
// pair recurs. Discovery holds decode() to that contract: after decode()
// the process must encode exactly the stored words, or the check aborts,
// rather than fire a process that did not return to the stored state.
//
// The search works on ONE working configuration: each process's state id,
// its memoized step there, and the links. A transition applies its step:
// it sets the process's state id, bumps the in-link's head if the step
// consumes and appends the step's message ids to the out-link. Its undo
// record is the old state id and the two links' positions and hashes, so
// a transition and its undo take O(1) time plus O(1) per message sent,
// whatever the size of the process's state, and call no Process method.
// The memo belongs to one call: it is built as the search discovers steps
// and freed with it, so every call pays for its own discoveries.
//
// The locality keeps the enabled set incremental: each explore() call
// receives its configuration's enabled set as a bitmask, and after firing
// p only p's step is looked up again for the child, and its successor's
// if the firing sent into an empty link (the argument of BatchRunner's
// incremental set, core/batch_engine.hpp). Where the mask is empty, one
// full scan of the steps asserts that nothing is enabled before the
// terminal checks, so a bookkeeping slip aborts instead of filing a live
// configuration as terminal. The §II clauses read the spec views
// (sim/invariants.hpp) that the interned states keep.
//
// The configuration hash is a sum of per-component terms,
// Σ mix(component, component hash) mod 2^64, over the n processes and the
// n links, and a transition pays only for the components it changed. A
// process's hash is taken over its encode() words as their count plus
// Σ splitmix64(word_i ^ i·c) mod 2^64; it is computed once per interned
// state, and the state keeps its term. A link carries a rolling hash of
// its in-flight messages m_0 (the head) .. m_{len-1},
// H = Σ h(m_j)·B^(len-1-j) mod 2^64, where h(m) is splitmix64 of the
// message's kind and label (kept with the interned message) and B is a
// fixed odd constant. A send sets H <- H·B + h(m) and a consume
// H <- H - h(m_0)·B^(len-1), both in O(1); undo restores the saved H. The
// link's hash is H plus len, so it depends only on what is in flight,
// never on how many messages have passed.
//
// The visited set holds these 64-bit hashes, not configurations (hash
// compaction), in an open-addressing table: linear probing, power-of-two
// capacity, load at most 1/2. An empty slot holds 0, so a hash of 0 is
// kept in a separate flag and stays exact. Two distinct configurations
// with equal hashes would merge silently and one subtree would go
// unexplored. If the component hashes behave as random words, the chance
// of any collision at the default budget of 10^6 configurations is below
// about 3·10^-8 (birthday bound, m²/2^65). For the rolling link hash the
// argument runs as follows. Two link contents x and y have
// H(x) - H(y) = Σ_m h(m)·c_m, where c_m sums +B^(len-1-j) over the
// positions j of message m in x and the same powers, negated, over those
// in y. B is odd, so every power of B is odd and c_m is odd whenever m
// occurs an odd number of times more in one content than in the other.
// Then h(m)·c_m, with h(m) an independent splitmix64 image, is uniform
// mod 2^64, and so is the difference, shifted by the difference of the
// lengths or not. Where every c_m is even, a structured ±δ pattern can
// cancel: a Thue–Morse content of length 2^k and its complement over two
// messages differ by δ·Π_{i<k} (B^(2^i) - 1), and B^(2^i) - 1 has 2-adic
// valuation 2 for i = 0 and i + 2 for i >= 1 with this B. The product
// reaches 2^64 only at k = 10, so such a pattern forces a collision only
// past about 2^10 messages on one link. No link of the E13 families holds
// more than 6.
//
// No process is cloned. A transition allocates only when a link's queue,
// the table of link-hash powers or the visited set grows; each grows
// geometrically and keeps its capacity. Discovery allocates as the memo
// grows, and the memo is freed with its search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"

namespace hring::core {

/// Largest ring check_all_schedules accepts: the enabled set of a
/// configuration is one 64-bit mask.
inline constexpr std::size_t kMaxModelCheckProcesses = 64;

struct ModelCheckConfig {
  /// Bound on distinct configurations visited before giving up.
  std::uint64_t max_configurations = 1'000'000;
  /// Require terminal configurations to elect ring.true_leader(). A ring
  /// with rotational symmetry has no true leader, so there this clause is
  /// skipped and every other one still applies.
  bool check_true_leader = true;
};

struct ModelCheckReport {
  /// True when the whole reachable configuration space was explored.
  bool complete = false;
  /// True when no violation was found (in the explored part).
  bool ok = true;
  std::vector<std::string> violations;
  std::uint64_t configurations = 0;  // distinct configurations visited
  std::uint64_t transitions = 0;     // firings explored
  std::uint64_t terminal_configurations = 0;
  std::size_t max_depth = 0;  // longest execution prefix explored

  [[nodiscard]] std::string to_string() const;
};

/// Explores every asynchronous schedule of the processes `factory` builds
/// on `ring`. They must support encode()/decode() restoration: decode()
/// must restore every word encode() wrote. Requires
/// ring.size() <= kMaxModelCheckProcesses.
[[nodiscard]] ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring, const sim::ProcessFactory& factory,
    const ModelCheckConfig& config = {});

/// check_all_schedules over election::make_factory(algorithm).
[[nodiscard]] ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ModelCheckConfig& config = {});

}  // namespace hring::core
