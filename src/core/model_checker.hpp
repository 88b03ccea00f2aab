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
//   * every terminal configuration is clean (all halted, links empty) and
//     elects one leader with global agreement, the true leader unless the
//     ring has rotational symmetry and so has none (bullet 2).
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
// The search works on ONE working configuration (processes built once from
// the factory, flat message queues) and undoes each transition instead of
// copying configurations. A §II firing changes one process, pops at most
// its in-link head and appends only to its out-link, so before a firing
// the checker records the process's encode() words in a LIFO arena (one
// record per level of the DFS path), its in-link's head index and its
// out-link's length. After the firing's subtree it decodes the process
// from that record and resets the two links; every explore() call leaves
// the working configuration exactly as it found it. decode() must consume
// exactly the words encode() wrote. Algorithms opt into checking by
// implementing Process::decode (A_k, B_k and the three identified-ring
// baselines do). A_k's decode truncates when the record's string is a
// prefix of the string the process holds, which an undo always meets (the
// firing appended at most one label): it drops the tail's labels from the
// counts and cuts the string and its border array, instead of replaying
// every label through the border update.
//
// The same locality keeps the enabled set incremental: each explore() call
// receives its configuration's enabled set as a bitmask, and after firing
// p only p and its successor are re-evaluated for the child (the argument
// of BatchRunner's incremental set, core/batch_engine.hpp). Where the mask
// is empty, one full scan asserts that nothing is enabled before the
// terminal checks, so a bookkeeping slip aborts instead of filing a live
// configuration as terminal.
//
// The configuration hash is a sum of per-component terms,
// Σ mix(component, component hash) mod 2^64, over the n processes and the
// n links, and a transition pays only for the words it changed. A
// process's hash is taken over its encode() words as their count plus
// Σ splitmix64(word_i ^ i·c) mod 2^64. After a firing the checker encodes
// the process again next to its undo record and updates the hash only at
// the positions where the two encodings differ or that only one of them
// has. A link carries a rolling hash of its in-flight messages m_0 (the
// head) .. m_{len-1}, H = Σ h(m_j)·B^(len-1-j) mod 2^64, where h(m) is
// splitmix64 of the message's kind and label and B is a fixed odd
// constant. A send sets H <- H·B + h(m) and a consume
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
// No process is cloned, and exploration allocates only when a buffer
// grows: the arena, a link's queue, a process's own buffers (A_k's
// string), or the visited set doubling its table. Each grows
// geometrically and keeps its capacity, so the steady state allocates
// nothing, up to that amortized growth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"

namespace hring::core {

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
/// on `ring`. They must support encode()/decode() restoration. Requires
/// ring.size() <= 64 (the enabled set is a word-wide bitmask).
[[nodiscard]] ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring, const sim::ProcessFactory& factory,
    const ModelCheckConfig& config = {});

/// check_all_schedules over election::make_factory(algorithm).
[[nodiscard]] ModelCheckReport check_all_schedules(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ModelCheckConfig& config = {});

}  // namespace hring::core
