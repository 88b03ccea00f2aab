#include "core/batch_engine.hpp"

#include <bit>

#include "election/batch_step.hpp"
#include "sim/engine.hpp"
#include "words/label.hpp"

namespace hring::core {

template <class Proc>
void BatchRunner<Proc>::configure(const BatchConfig& config,
                                  const Proc& prototype) {
  HRING_EXPECTS(config.slots >= 1);
  HRING_EXPECTS(config.n >= 1);
  config_ = config;
  n_ = config.n;
  // Processes are copy-constructible but not assignable (sim::Process), so
  // the arena is built anew rather than assign()ed.
  procs_ = std::vector<Proc>(config.slots * n_, prototype);
  links_.reset(config.slots * n_);
  slots_.clear();
  slots_.resize(config.slots);
  age_.assign(config.slots * n_, 0);
  words_ = (n_ + 63) / 64;
  enabled_.assign(config.slots * words_, 0);
  free_.clear();
  // LIFO free list, lowest slot on top: a lightly loaded runner keeps
  // re-using the same few slots (warm caches) instead of striding the
  // whole arena.
  for (std::size_t s = config.slots; s-- > 0;) free_.push_back(s);
  active_count_ = 0;
  enabled_buf_.reserve(n_);
  chosen_buf_.reserve(n_);
}

template <class Proc>
void BatchRunner<Proc>::activate(std::size_t cell,
                                 const ring::LabeledRing& ring,
                                 std::uint64_t election_seed,
                                 std::optional<sim::ProcessId> expected_leader) {
  HRING_EXPECTS(!free_.empty());
  HRING_EXPECTS(ring.size() == n_);
  const std::size_t s = free_.back();
  free_.pop_back();
  ++active_count_;

  Slot& slot = slots_[s];
  slot.active = true;
  slot.cell = cell;
  slot.step = 0;
  slot.label_bits = ring.label_bits();
  slot.stats.reset(n_);
  slot.scheduler.reset(config_.scheduler, election_seed);
  slot.expected_leader = expected_leader;

  const std::size_t base = s * n_;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    Proc& proc = procs_[base + pid];
    proc.restart(pid, ring.label(pid));
    links_.reset_link(base + pid);
    age_[base + pid] = 0;
    // Initial-space accounting, as in ExecutionCore::begin_run.
    slot.stats.peak_space_bits = std::max(slot.stats.peak_space_bits,
                                          proc.space_bits(slot.label_bits));
  }
  // The one full scan of the slot's guards, once every in-link is empty.
  std::fill_n(enabled_.begin() + static_cast<std::ptrdiff_t>(s * words_),
              words_, 0);
  for (sim::ProcessId pid = 0; pid < n_; ++pid) refresh(s, pid);
}

template <class Proc>
bool BatchRunner<Proc>::guard(std::size_t s, sim::ProcessId pid) const {
  const Proc& proc = procs_[s * n_ + pid];
  return !proc.halted() && proc.enabled(links_.head(in_link(s, pid)));
}

// hring-lint: hot-path
template <class Proc>
void BatchRunner<Proc>::refresh(std::size_t s, sim::ProcessId pid) {
  std::uint64_t& word = enabled_[s * words_ + pid / 64];
  const std::uint64_t bit = std::uint64_t{1} << (pid % 64);
  if (guard(s, pid)) {
    word |= bit;
  } else {
    word &= ~bit;
    age_[s * n_ + pid] = 0;
  }
}

// hring-lint: hot-path
template <class Proc>
bool BatchRunner<Proc>::step_slot(std::size_t s) {
  Slot& slot = slots_[s];
  const std::size_t base = s * n_;

  // The enabled set, ascending: the vector step_once builds by scanning
  // every guard (see the header comment for why the bitset is exact).
  enabled_buf_.clear();
  const std::uint64_t* bits = &enabled_[s * words_];
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      enabled_buf_.push_back(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  if (enabled_buf_.empty()) return false;

  chosen_buf_.clear();
  for (const sim::ProcessId pid : enabled_buf_) {
    if (age_[base + pid] >= sim::kFairnessBound) chosen_buf_.push_back(pid);
  }
  const bool forced = !chosen_buf_.empty();
  slot.scheduler.select(enabled_buf_, chosen_buf_);
  if (forced) {
    // Every scheduler appends a sorted subset without duplicates, so only
    // forced picks ahead of it need the sort and dedup.
    std::sort(chosen_buf_.begin(), chosen_buf_.end());
    chosen_buf_.erase(std::unique(chosen_buf_.begin(), chosen_buf_.end()),
                      chosen_buf_.end());
  }
  HRING_ASSERT(!chosen_buf_.empty());

  // Age every enabled process; the firings below reset the chosen ones to
  // 0, so exactly the enabled-but-skipped ones end the step one older.
  for (const sim::ProcessId pid : enabled_buf_) ++age_[base + pid];
  for (const sim::ProcessId pid : chosen_buf_) {
    const std::size_t g = base + pid;
    Proc& proc = procs_[g];
    // Recompute the head: an earlier firing in this step may have changed
    // the in-link — but only by appending, never by popping another
    // process's head, so the head seen here is the one γ prescribes
    // (same argument as StepEngine::step_once).
    const sim::Message* head = links_.head(in_link(s, pid));
    HRING_ASSERT(!proc.halted());
    HRING_ASSERT(proc.enabled(head));
    election::BatchFireContext ctx(slot.stats, links_, in_link(s, pid),
                                   out_link(s, pid), pid, slot.label_bits,
                                   head);
    proc.fire(head, ctx);
    ++slot.stats.actions;
    slot.stats.peak_space_bits = std::max(slot.stats.peak_space_bits,
                                          proc.space_bits(slot.label_bits));
    age_[g] = 0;
  }

  // After all firings, re-evaluate the fired processes and their
  // successors, each once: chosen_buf_ is sorted, so a successor that is
  // itself the next chosen process (cyclically) is refreshed as such.
  for (std::size_t i = 0; i < chosen_buf_.size(); ++i) {
    const sim::ProcessId pid = chosen_buf_[i];
    refresh(s, pid);
    const sim::ProcessId succ = pid + 1 == n_ ? 0 : pid + 1;
    if (succ != chosen_buf_[i + 1 < chosen_buf_.size() ? i + 1 : 0]) {
      refresh(s, succ);
    }
  }
  ++slot.step;
  slot.stats.steps = slot.step;
  slot.stats.time_units = static_cast<double>(slot.step);
  return true;
}

template <class Proc>
bool BatchRunner<Proc>::slot_is_clean(std::size_t s) const {
  const std::size_t base = s * n_;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (!procs_[base + pid].halted()) return false;
  }
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (!links_.empty(base + pid)) return false;
  }
  return true;
}

template <class Proc>
BatchCellResult BatchRunner<Proc>::finish_slot(std::size_t s,
                                               sim::Outcome outcome) {
  Slot& slot = slots_[s];
  const std::size_t base = s * n_;

  // Close the statistics (make_result's epilogue; label_comparisons was
  // accumulated per step in step_all).
  for (std::size_t pid = 0; pid < n_; ++pid) {
    slot.stats.peak_link_occupancy = std::max(
        slot.stats.peak_link_occupancy, links_.high_water(base + pid));
  }

  if (outcome != sim::Outcome::kBudgetExhausted) {
    // The enabled set emptied. One full scan confirms it, so a bookkeeping
    // slip aborts instead of filing a live election as a deadlock.
    for (sim::ProcessId pid = 0; pid < n_; ++pid) {
      HRING_ASSERT(!guard(s, pid));
    }
  }

  BatchCellResult result;
  result.cell = slot.cell;
  result.outcome = outcome;
  result.stats = &slot.stats;

  std::size_t leaders = 0;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (procs_[base + pid].is_leader()) {
      ++leaders;
      result.leader = pid;
    }
  }
  if (leaders != 1) result.leader.reset();

  if (config_.verify) {
    // Terminal-configuration checks, mirroring verify_election (raw label
    // compares: engine self-checks never count toward the statistic).
    bool ok = outcome == sim::Outcome::kTerminated && leaders == 1;
    if (ok) {
      const sim::Label leader_label = procs_[base + *result.leader].id();
      for (std::size_t pid = 0; ok && pid < n_; ++pid) {
        const Proc& proc = procs_[base + pid];
        const std::optional<sim::Label> learned = proc.leader();
        ok = proc.done() && proc.halted() && learned.has_value() &&
             learned->value() == leader_label.value();
      }
      if (ok && config_.check_true_leader) {
        ok = slot.expected_leader.has_value() &&
             *result.leader == *slot.expected_leader;
      }
    }
    result.verified = ok;
  }

  slot.active = false;
  --active_count_;
  free_.push_back(s);
  return result;
}

// hring-lint: hot-path
template <class Proc>
void BatchRunner<Proc>::step_all(std::vector<BatchCellResult>& done) {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].active) continue;
    Slot& slot = slots_[s];
    if (slot.step >= config_.budget) {
      done.push_back(finish_slot(s, sim::Outcome::kBudgetExhausted));
      continue;
    }
    // Slots interleave on one thread, so the thread-local comparison
    // counter is sliced into per-slot deltas around each slot's step.
    const std::uint64_t comparisons_before = sim::Label::comparison_count();
    const bool progressed = step_slot(s);
    slot.stats.label_comparisons +=
        sim::Label::comparison_count() - comparisons_before;
    if (!progressed) {
      done.push_back(finish_slot(s, slot_is_clean(s)
                                        ? sim::Outcome::kTerminated
                                        : sim::Outcome::kDeadlock));
    }
  }
}

template class BatchRunner<election::AkProcess>;
template class BatchRunner<election::BkProcess>;
template class BatchRunner<election::ChangRobertsProcess>;
template class BatchRunner<election::LeLannProcess>;
template class BatchRunner<election::PetersonProcess>;

}  // namespace hring::core
