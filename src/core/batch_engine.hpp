// Batch step engine: one recycled ring per campaign worker.
//
// The scalar StepEngine runs one ring at a time over heap-allocated
// Process objects. A campaign runs millions of small rings, where the
// per-cell fixed costs (process construction, engine rebinding) dominate
// the handful of microseconds the election itself takes. BatchRunner
// amortizes them away: it holds one ring of n process objects, its n
// sim::Links, the enabled and chosen bitsets, n ages and one
// sim::Scheduler, and run() steps one cell to completion on them. Each
// run() restarts the ring in place for its cell, whatever the previous
// cell left behind: restart() rebinds the processes to the new ring and
// Link::reset() empties the links, both keeping their buffers, so the
// runner allocates nothing once it has warmed up.
//
// The runner runs the processes' own actions. The process type is a final
// class (AkProcess, BkProcess, ChangRobertsProcess, LeLannProcess or
// PetersonProcess), so enabled(), space_bits() and the spec-variable reads
// are statically dispatched and inlined, and fire() is the process's
// action template instantiated for election::BatchFireContext — the same
// code every other engine runs through sim::Context. The stepping itself
// is StepEngine::step_once's: the same sim::choose_step (fairness forcing,
// then the picks of the same by-value sim::Scheduler) and the same
// ascending firing order. Per-cell Stats are therefore byte-identical to a
// scalar run of the same (ring, config, seed) — the batch-vs-scalar
// cross-check grid in tests/integration/batch_engine_test enforces it
// field by field, including the Label-comparison count, which both engines
// read off the thread-local counter they reset when a run starts. A cell's
// verdict comes from sim::check_terminal, the bullet-2 clause that
// verify_election applies to a scalar run's snapshots.
//
// Only the way the enabled set is found differs. StepEngine re-evaluates
// all n guards every step; the runner keeps the enabled set across steps
// and, after a step's firings, re-evaluates only the fired processes and
// their successors. That is exact under §II: a guard reads only the
// process's own variables and the head of its in-link, and a firing
// changes only its own variables, pops only its own in-link and appends
// only to its out-link — the successor's in-link. No other guard can
// change value. Guards compare message kinds, never labels, so evaluating
// fewer of them leaves the Label-comparison count unchanged.
//
// One BatchRunner is single-threaded; campaign workers each own one
// (core/campaign.cpp) and run the cells they claim from a shared
// CellQueue one after another.
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
#include "sim/link.hpp"
#include "sim/run_result.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::core {

/// A completed cell, returned by BatchRunner::run. `stats` points into the
/// runner and stays valid until its next run().
struct BatchCellResult {
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  const sim::Stats* stats = nullptr;
};

/// Runner-wide configuration; every cell of a campaign shares it.
struct BatchConfig {
  /// Ring size — fixed across the campaign (campaigns sweep seeds, not n).
  std::size_t n = 0;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t budget = 10'000'000;
  /// Check the terminal configuration (§II bullet 2) per cell.
  bool verify = true;
};

/// `Proc` is a final Process subclass with restart(pid, id) and a fire()
/// template instantiated for election::BatchFireContext: one of the five
/// algorithms' process classes.
template <class Proc>
class BatchRunner {
 public:
  /// Sizes the ring: config.n copies of `prototype`, which carries the
  /// algorithm's parameters (k for A_k and B_k), their n links, the
  /// enabled and chosen bitsets and the n ages.
  void configure(const BatchConfig& config, const Proc& prototype);

  /// Runs one cell to completion (or to the budget) over `ring` (size must
  /// equal config.n) with the cell's election seed. With verify, a given
  /// `expected_leader` is the true leader the elected process must be.
  /// Restarts the processes and links in place, whatever state the
  /// previous cell left them in.
  [[nodiscard]] BatchCellResult run(
      const ring::LabeledRing& ring, std::uint64_t election_seed,
      std::optional<sim::ProcessId> expected_leader);

 private:
  /// Mirrors StepEngine::step_once; false when no process is enabled
  /// (terminal or deadlock).
  [[nodiscard]] bool step();

  /// Node `pid`'s guard, evaluated from scratch.
  [[nodiscard]] bool guard(sim::ProcessId pid) const {
    const Proc& proc = procs_[pid];
    return !proc.halted() && proc.enabled(links_[ring::left(pid, n_)].head());
  }

  /// Re-evaluates node `pid`'s guard into the enabled set. A node that is
  /// disabled gets age 0, as StepEngine::step_once gives it.
  // hring-lint: hot-path
  void refresh(sim::ProcessId pid) {
    if (guard(pid)) {
      enabled_[pid / 64] |= sim::pid_bit(pid);
    } else {
      enabled_[pid / 64] &= ~sim::pid_bit(pid);
      age_[pid] = 0;
    }
  }

  /// True iff the ring halted cleanly: all nodes halted, all links empty.
  [[nodiscard]] bool is_clean() const;

  /// Closes the cell's statistics as make_result does, and verifies the
  /// terminal configuration with verify_election's clause,
  /// sim::check_terminal.
  [[nodiscard]] BatchCellResult finish(
      sim::Outcome outcome, std::optional<sim::ProcessId> expected_leader);

  BatchConfig config_;
  std::size_t n_ = 0;
  std::vector<Proc> procs_;
  std::vector<sim::Link> links_;  // link pid runs from pid to pid + 1
  std::vector<std::uint32_t> age_;
  // The enabled and chosen sets (sim::PidSet bitsets).
  std::vector<std::uint64_t> enabled_;
  std::vector<std::uint64_t> chosen_;
  sim::Scheduler scheduler_{sim::SchedulerKind::kSynchronous, 0};
  sim::Stats stats_;
  std::size_t label_bits_ = 0;
};

extern template class BatchRunner<election::AkProcess>;
extern template class BatchRunner<election::BkProcess>;
extern template class BatchRunner<election::ChangRobertsProcess>;
extern template class BatchRunner<election::LeLannProcess>;
extern template class BatchRunner<election::PetersonProcess>;

}  // namespace hring::core
