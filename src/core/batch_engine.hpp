// Batched step engine: many small-n elections per arena.
//
// The scalar StepEngine runs one ring at a time over heap-allocated
// Process objects. A campaign runs millions of small rings, where the
// per-cell fixed costs (process construction, engine rebinding, scheduler
// allocation) dominate the handful of microseconds the election itself
// takes. BatchRunner amortizes them away: it packs `slots` rings of n
// nodes into one arena — one slot-major vector of process objects, one
// LinkPlane for every link of every ring, one flat age plane — and steps
// all active slots in a loop, recycling each slot for the next cell the
// moment its election completes: restart() rebinds a slot's processes to
// the new ring in place, keeping their buffers, so the arena allocates
// nothing once it has warmed up.
//
// The runner runs the processes' own actions. The process type is a final
// class (AkProcess, BkProcess, ChangRobertsProcess, LeLannProcess or
// PetersonProcess), so enabled(), space_bits() and the spec-variable reads
// are statically dispatched and inlined, and fire() is the process's
// action template instantiated for election::BatchFireContext — the same
// code every other engine runs through sim::Context. The stepping itself
// is StepEngine::step_once's: the same enabled set, fairness forcing,
// scheduler selection (BatchScheduler embeds the same concrete scheduler
// types by value) and firing order. Per-cell Stats are therefore
// byte-identical to a scalar run of the same (ring, config, seed) — the
// batch-vs-scalar cross-check grid in tests/integration/batch_engine_test
// enforces it field by field, including the Label-comparison count, which
// is captured per slot as a delta of the thread-local counter around each
// slot's step.
//
// Only the way the enabled set is found differs. StepEngine re-evaluates
// all n guards every step; the runner keeps each slot's enabled set as a
// bitset (one word per 64 nodes) and, after a step's firings, re-evaluates
// only the fired processes and their successors. That is exact under §II:
// a guard reads only the process's own variables and the head of its
// in-link, and a firing changes only its own variables, pops only its own
// in-link and appends only to its out-link — the successor's in-link. No
// other guard can change value. The set bits, read in ascending pid order,
// are the sorted vector step_once builds, so the schedulers draw the same
// random numbers. Guards compare message kinds, never labels, so
// evaluating fewer of them leaves the Label-comparison count unchanged.
//
// One BatchRunner is single-threaded; campaign workers each own one
// (core/campaign.cpp) and pull cells from a shared CellQueue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/election_driver.hpp"
#include "election/ak.hpp"
#include "election/bk.hpp"
#include "election/chang_roberts.hpp"
#include "election/lelann.hpp"
#include "election/peterson.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/batch_link.hpp"
#include "sim/run_result.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::core {

/// The step-engine schedulers, embedded by value and tag-dispatched — a
/// recycled slot re-seeds its scheduler without touching the allocator
/// (make_scheduler, by contrast, heap-allocates one per run).
class BatchScheduler {
 public:
  /// Re-arms the scheduler for a new cell; mirrors make_scheduler's
  /// construction (including RandomSubset's p = 0.5).
  void reset(SchedulerKind kind, std::uint64_t seed) {
    kind_ = kind;
    switch (kind) {
      case SchedulerKind::kSynchronous:
      case SchedulerKind::kConvoy:
        break;  // stateless
      case SchedulerKind::kRoundRobin:
        round_robin_ = sim::RoundRobinScheduler();
        break;
      case SchedulerKind::kRandomSingle:
        random_single_ = sim::RandomSingleScheduler(support::Rng(seed));
        break;
      case SchedulerKind::kRandomSubset:
        random_subset_ =
            sim::RandomSubsetScheduler(support::Rng(seed), 0.5);
        break;
    }
  }

  // hring-lint: hot-path
  void select(const std::vector<sim::ProcessId>& enabled,
              std::vector<sim::ProcessId>& out) {
    switch (kind_) {
      case SchedulerKind::kSynchronous:
        synchronous_.select(enabled, out);
        return;
      case SchedulerKind::kRoundRobin:
        round_robin_.select(enabled, out);
        return;
      case SchedulerKind::kRandomSingle:
        random_single_.select(enabled, out);
        return;
      case SchedulerKind::kRandomSubset:
        random_subset_.select(enabled, out);
        return;
      case SchedulerKind::kConvoy:
        convoy_.select(enabled, out);
        return;
    }
    HRING_ASSERT(false);
  }

 private:
  SchedulerKind kind_ = SchedulerKind::kSynchronous;
  sim::SynchronousScheduler synchronous_;
  sim::RoundRobinScheduler round_robin_;
  sim::RandomSingleScheduler random_single_{support::Rng(0)};
  sim::RandomSubsetScheduler random_subset_{support::Rng(0), 0.5};
  sim::ConvoyScheduler convoy_;
};

/// Completed cell, reported by BatchRunner::step_all. `stats` points into
/// the runner and stays valid until the producing slot is re-activated.
struct BatchCellResult {
  std::size_t cell = 0;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  const sim::Stats* stats = nullptr;
};

/// Arena-wide configuration; every cell of a campaign shares it.
struct BatchConfig {
  std::size_t slots = 64;
  /// Ring size — fixed across the batch (campaigns sweep seeds, not n).
  std::size_t n = 0;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t budget = 10'000'000;
  /// Check the terminal configuration (§II bullets) per cell.
  bool verify = true;
  /// With verify: also require the elected process to be the precomputed
  /// expected leader passed to activate().
  bool check_true_leader = false;
};

/// `Proc` is a final Process subclass with restart(pid, id) and a fire()
/// template instantiated for election::BatchFireContext: one of the five
/// algorithms' process classes.
template <class Proc>
class BatchRunner {
 public:
  /// Sizes the arena: config.slots rings of config.n copies of
  /// `prototype`, which carries the algorithm's parameters (k for A_k and
  /// B_k).
  void configure(const BatchConfig& config, const Proc& prototype);

  /// Binds a free slot to cell `cell` over `ring` (size must equal
  /// config.n), with the cell's election seed. `expected_leader` is the
  /// true leader to verify against (ignored unless check_true_leader).
  void activate(std::size_t cell, const ring::LabeledRing& ring,
                std::uint64_t election_seed,
                std::optional<sim::ProcessId> expected_leader);

  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }
  [[nodiscard]] bool has_active() const { return active_count_ > 0; }

  /// One configuration step for every active slot. Cells that complete are
  /// appended to `done` (not cleared here) and their slots freed; drain
  /// `done` before the next activate() — each result's `stats` pointer is
  /// valid only until its slot is re-activated.
  void step_all(std::vector<BatchCellResult>& done);

 private:
  struct Slot {
    bool active = false;
    std::size_t cell = 0;
    std::uint64_t step = 0;
    std::size_t label_bits = 0;
    sim::Stats stats;
    BatchScheduler scheduler;
    std::optional<sim::ProcessId> expected_leader;
  };

  [[nodiscard]] std::size_t in_link(std::size_t slot,
                                    sim::ProcessId pid) const {
    return slot * n_ + (pid == 0 ? n_ - 1 : pid - 1);
  }
  [[nodiscard]] std::size_t out_link(std::size_t slot,
                                     sim::ProcessId pid) const {
    return slot * n_ + pid;
  }

  /// Mirrors StepEngine::step_once for one slot; false when no process is
  /// enabled (terminal or deadlock).
  [[nodiscard]] bool step_slot(std::size_t s);

  /// Node `pid`'s guard in slot `s`, evaluated from scratch.
  [[nodiscard]] bool guard(std::size_t s, sim::ProcessId pid) const;

  /// Re-evaluates node `pid`'s guard into the slot's enabled set. A node
  /// that is disabled gets age 0, as StepEngine::step_once gives it.
  void refresh(std::size_t s, sim::ProcessId pid);

  /// True iff slot `s` halted cleanly: all nodes halted, all links empty.
  [[nodiscard]] bool slot_is_clean(std::size_t s) const;

  /// Closes the slot's statistics and verifies the terminal configuration;
  /// mirrors make_result + verify_election.
  [[nodiscard]] BatchCellResult finish_slot(std::size_t s,
                                            sim::Outcome outcome);

  BatchConfig config_;
  std::size_t n_ = 0;
  std::vector<Proc> procs_;  // slots * n, slot-major
  sim::LinkPlane links_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> age_;  // slots * n, same indexing as procs_
  // Per-slot enabled sets: bit pid % 64 of word s * words_ + pid / 64 is
  // node pid's guard in slot s.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> enabled_;
  std::vector<std::size_t> free_;   // free slot indices (LIFO)
  std::size_t active_count_ = 0;
  // Shared scratch for the per-slot enabled/chosen sets (one runner is
  // single-threaded, so one pair serves every slot).
  std::vector<sim::ProcessId> enabled_buf_;
  std::vector<sim::ProcessId> chosen_buf_;
};

extern template class BatchRunner<election::AkProcess>;
extern template class BatchRunner<election::BkProcess>;
extern template class BatchRunner<election::ChangRobertsProcess>;
extern template class BatchRunner<election::LeLannProcess>;
extern template class BatchRunner<election::PetersonProcess>;

}  // namespace hring::core
