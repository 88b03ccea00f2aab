#include "core/batch_engine.hpp"

#include "election/batch_step.hpp"
#include "sim/invariants.hpp"

namespace hring::core {

template <class Proc>
void BatchRunner<Proc>::configure(const BatchConfig& config,
                                  const Proc& prototype) {
  HRING_EXPECTS(config.n >= 1);
  config_ = config;
  n_ = config.n;
  // Processes are copy-constructible but not assignable (sim::Process), so
  // the ring is built anew rather than assign()ed.
  procs_ = std::vector<Proc>(n_, prototype);
  links_.assign(n_, sim::Link{});
  age_.assign(n_, 0);
  enabled_.assign(sim::pid_set_words(n_), 0);
  chosen_.assign(sim::pid_set_words(n_), 0);
}

// hring-lint: hot-path
template <class Proc>
bool BatchRunner<Proc>::step() {
  // The enabled set is the one step_once builds by scanning every guard
  // (see the header comment for why keeping it across steps is exact).
  bool any_enabled = false;
  for (const std::uint64_t word : enabled_) any_enabled |= word != 0;
  if (!any_enabled) return false;

  sim::choose_step(scheduler_, enabled_, age_, chosen_);
  sim::for_each_pid(chosen_, [&](sim::ProcessId pid) {
    Proc& proc = procs_[pid];
    // Recompute the head: an earlier firing in this step may have changed
    // the in-link — but only by appending, never by popping another
    // process's head, so the head seen here is the one γ prescribes
    // (same argument as StepEngine::step_once).
    sim::Link& in = links_[ring::left(pid, n_)];
    const sim::Message* head = in.head();
    HRING_ASSERT(!proc.halted());
    HRING_ASSERT(proc.enabled(head));
    election::BatchFireContext ctx(stats_, in, links_[pid], pid, label_bits_,
                                   head);
    proc.fire(head, ctx);
    ++stats_.actions;
    stats_.peak_space_bits =
        std::max(stats_.peak_space_bits, proc.space_bits(label_bits_));
    age_[pid] = 0;
  });

  // After all firings, re-evaluate the fired processes and their
  // successors, each once: a successor that was itself chosen is
  // refreshed as such.
  sim::for_each_pid(chosen_, [&](sim::ProcessId pid) {
    refresh(pid);
    const sim::ProcessId succ = ring::right(pid, n_);
    if (!sim::contains(chosen_, succ)) refresh(succ);
  });
  ++stats_.steps;
  stats_.time_units = static_cast<double>(stats_.steps);
  return true;
}

template <class Proc>
bool BatchRunner<Proc>::is_clean() const {
  for (const Proc& proc : procs_) {
    if (!proc.halted()) return false;
  }
  for (const sim::Link& link : links_) {
    if (!link.empty()) return false;
  }
  return true;
}

template <class Proc>
BatchCellResult BatchRunner<Proc>::run(
    const ring::LabeledRing& ring, std::uint64_t election_seed,
    std::optional<sim::ProcessId> expected_leader) {
  HRING_EXPECTS(ring.size() == n_);
  label_bits_ = ring.label_bits();
  stats_.reset(n_);
  scheduler_ = sim::Scheduler(config_.scheduler, election_seed);
  for (sim::ProcessId pid = 0; pid < n_; ++pid) {
    Proc& proc = procs_[pid];
    proc.restart(pid, ring.label(pid));
    links_[pid].reset();
    age_[pid] = 0;
    // Initial-space accounting, as in ExecutionCore::begin_run.
    stats_.peak_space_bits =
        std::max(stats_.peak_space_bits, proc.space_bits(label_bits_));
  }
  // The one full scan of the guards, once every in-link is empty.
  std::fill(enabled_.begin(), enabled_.end(), 0);
  for (sim::ProcessId pid = 0; pid < n_; ++pid) refresh(pid);

  sim::Label::reset_comparison_count();
  while (stats_.steps < config_.budget) {
    if (!step()) {
      return finish(
          is_clean() ? sim::Outcome::kTerminated : sim::Outcome::kDeadlock,
          expected_leader);
    }
  }
  return finish(sim::Outcome::kBudgetExhausted, expected_leader);
}

template <class Proc>
BatchCellResult BatchRunner<Proc>::finish(
    sim::Outcome outcome, std::optional<sim::ProcessId> expected_leader) {
  // Close the statistics (make_result's epilogue).
  stats_.label_comparisons = sim::Label::comparison_count();
  for (const sim::Link& link : links_) {
    stats_.peak_link_occupancy =
        std::max(stats_.peak_link_occupancy, link.high_water());
  }

  if (outcome != sim::Outcome::kBudgetExhausted) {
    // The enabled set emptied. One full scan confirms it, so a bookkeeping
    // slip aborts instead of filing a live election as a deadlock.
    for (sim::ProcessId pid = 0; pid < n_; ++pid) {
      HRING_ASSERT(!guard(pid));
    }
  }

  BatchCellResult result;
  result.outcome = outcome;
  result.stats = &stats_;
  bool ok = outcome == sim::Outcome::kTerminated;
  result.leader = sim::check_terminal(
      n_, [this](sim::ProcessId pid) { return sim::SpecView::of(procs_[pid]); },
      expected_leader, [&ok](const std::string&) { ok = false; });
  result.verified = config_.verify && ok;
  return result;
}

template class BatchRunner<election::AkProcess>;
template class BatchRunner<election::BkProcess>;
template class BatchRunner<election::ChangRobertsProcess>;
template class BatchRunner<election::LeLannProcess>;
template class BatchRunner<election::PetersonProcess>;

}  // namespace hring::core
