// Deeper B_k properties: the phase machinery of §V checked on live
// executions — most importantly the barrier property behind Observation 1
// (phases cannot overlap: at any instant all started processes are within
// one phase of each other).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "election/bk.hpp"
#include "ring/generator.hpp"
#include "sim/engine.hpp"

namespace hring::election {
namespace {

using core::ElectionConfig;

/// After every step: counters bounded by k, and the global phase spread
/// (max - min over processes that started) is at most 1 — the barrier
/// synchronization Observation 1 rests on.
class BkPhaseMonitor final : public sim::Observer {
 public:
  explicit BkPhaseMonitor(std::size_t k) : k_(k) {}

  void on_step_end(const sim::ExecutionView& view) override {
    std::size_t min_phase = SIZE_MAX;
    std::size_t max_phase = 0;
    for (sim::ProcessId pid = 0; pid < view.process_count(); ++pid) {
      const auto& proc =
          dynamic_cast<const BkProcess&>(view.process(pid));
      ASSERT_LE(proc.inner(), k_) << "p" << pid;
      ASSERT_LE(proc.outer(), k_) << "p" << pid;
      if (proc.phase() == 0) continue;  // INIT not yet fired
      min_phase = std::min(min_phase, proc.phase());
      max_phase = std::max(max_phase, proc.phase());
    }
    if (max_phase > 0 && min_phase != SIZE_MAX) {
      ASSERT_LE(max_phase - min_phase, 1u)
          << "phases overlap: [" << min_phase << ", " << max_phase << "]";
      max_spread_ = std::max(max_spread_, max_phase - min_phase);
    }
  }

  [[nodiscard]] std::size_t max_spread() const { return max_spread_; }

 private:
  std::size_t k_;
  std::size_t max_spread_ = 0;
};

TEST(BkPropertyTest, PhasesNeverOverlapUnderAnyDaemon) {
  support::Rng rng(0xB0);
  for (const auto sched :
       {core::SchedulerKind::kSynchronous, core::SchedulerKind::kRoundRobin,
        core::SchedulerKind::kRandomSingle,
        core::SchedulerKind::kRandomSubset, core::SchedulerKind::kConvoy}) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t n = 3 + rng.below(7);
      const std::size_t k = 1 + rng.below(3);
      const auto ring =
          ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
      ASSERT_TRUE(ring.has_value());
      BkPhaseMonitor monitor(k);
      ElectionConfig config;
      config.algorithm = {AlgorithmId::kBk, k, false};
      config.scheduler = sched;
      config.seed = rng();
      config.extra_observers.push_back(&monitor);
      const auto result = core::run_election(*ring, config);
      ASSERT_EQ(result.outcome, sim::Outcome::kTerminated)
          << ring->to_string();
      // With more than one phase, the spread 1 must actually occur (the
      // wave is visible), so the invariant is not vacuous.
      EXPECT_EQ(monitor.max_spread(), 1u) << ring->to_string();
    }
  }
}

TEST(BkPropertyTest, ExactlyOneProcessEverWins) {
  support::Rng rng(0xB1);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 2 + rng.below(9);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    sim::StepEngine engine(*ring, BkProcess::factory(k),
                           sim::Scheduler(sim::SchedulerKind::kRoundRobin, 0));
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
    std::size_t winners = 0;
    for (sim::ProcessId pid = 0; pid < n; ++pid) {
      const auto& proc =
          dynamic_cast<const BkProcess&>(engine.process(pid));
      EXPECT_EQ(proc.state(), BkState::kHalt) << "p" << pid;
      if (proc.is_leader()) ++winners;
    }
    EXPECT_EQ(winners, 1u) << ring->to_string();
  }
}

TEST(BkPropertyTest, FinishWaveIsExactlyNMessages) {
  support::Rng rng(0xB2);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t n = 2 + rng.below(10);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config;
    config.algorithm = {AlgorithmId::kBk, k, false};
    const auto m = core::measure(*ring, config);
    ASSERT_TRUE(m.ok());
    const auto idx = sim::kind_index(sim::MsgKind::kFinishLabel);
    EXPECT_EQ(m.result.stats.sent_by_kind[idx], n) << ring->to_string();
    EXPECT_EQ(m.result.stats.received_by_kind[idx], n)
        << ring->to_string();
  }
}

TEST(BkPropertyTest, AllSentMessagesAreReceived) {
  support::Rng rng(0xB3);
  for (const auto sched :
       {core::SchedulerKind::kSynchronous,
        core::SchedulerKind::kRandomSingle, core::SchedulerKind::kConvoy}) {
    const auto ring = ring::random_asymmetric_ring(8, 2, 6, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config;
    config.algorithm = {AlgorithmId::kBk, 2, false};
    config.scheduler = sched;
    config.seed = rng();
    const auto m = core::measure(*ring, config);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.result.stats.messages_sent,
              m.result.stats.messages_received);
  }
}

TEST(BkPropertyTest, GuestsEqualLLabelsOnRandomRings) {
  // Lemma 8 on arbitrary rings (Figure 1 pinned the specific instance).
  support::Rng rng(0xB4);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t n = 3 + rng.below(8);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    sim::StepEngine engine(*ring, BkProcess::factory(k, true),
                           sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
    for (sim::ProcessId pid = 0; pid < n; ++pid) {
      const auto& proc =
          dynamic_cast<const BkProcess&>(engine.process(pid));
      const auto llabels = ring->llabels(pid, proc.history().size());
      for (const auto& record : proc.history()) {
        ASSERT_EQ(record.guest, llabels[record.phase - 1])
            << "p" << pid << " phase " << record.phase << " on "
            << ring->to_string();
      }
    }
  }
}

TEST(BkPropertyTest, LeaderFinalPhaseEqualsX) {
  // X = min{x : LLabels(L)^x contains L.id (k+1) times} — computed
  // independently and compared to the winner's phase counter.
  support::Rng rng(0xB5);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t n = 2 + rng.below(8);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    const auto leader_idx = ring->true_leader();
    // Independent X computation.
    const auto leader_label = ring->label(leader_idx);
    std::size_t x = 0;
    std::size_t copies = 0;
    const auto stream = ring->llabels(leader_idx, (k + 1) * n + 1);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (stream[i] == leader_label) {
        if (++copies == k + 1) {
          x = i + 1;
          break;
        }
      }
    }
    ASSERT_GT(x, 0u);

    sim::StepEngine engine(*ring, BkProcess::factory(k),
                           sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
    const auto& winner =
        dynamic_cast<const BkProcess&>(engine.process(leader_idx));
    ASSERT_TRUE(winner.is_leader()) << ring->to_string();
    EXPECT_EQ(winner.phase(), x) << ring->to_string();
    EXPECT_LE(x, core::bk_phase_bound(n, k));
  }
}

}  // namespace
}  // namespace hring::election
