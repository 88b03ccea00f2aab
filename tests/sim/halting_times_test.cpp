// Theorem 2's closing claim, measured: once the leader decides, the
// ⟨FINISH⟩ wave halts every process within one ring traversal — under
// unit delays, last-halt <= decision + n.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/election_driver.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "sim/delay_model.hpp"
#include "sim/engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/observer.hpp"

namespace hring::sim {
namespace {

/// Records, per process, the time of its decision (done := TRUE) and of
/// its halt.
class HaltingTimes final : public Observer {
 public:
  struct Record {
    std::optional<double> done_time;
    std::optional<double> halt_time;
  };

  void on_start(const ExecutionView& view) override {
    records_.assign(view.process_count(), Record{});
  }

  void on_action(const ExecutionView& view,
                 const ActionEvent& event) override {
    const Process& p = view.process(event.pid);
    Record& r = records_[event.pid];
    if (p.done() && !r.done_time.has_value()) {
      r.done_time = view.current_time();
    }
    if (p.halted() && !r.halt_time.has_value()) {
      r.halt_time = view.current_time();
    }
  }

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }

  /// Earliest decision time (the leader's, for A_k/B_k); nullopt when no
  /// process decided.
  [[nodiscard]] std::optional<double> first_decision() const {
    std::optional<double> best;
    for (const auto& r : records_) {
      if (r.done_time.has_value() &&
          (!best.has_value() || *r.done_time < *best)) {
        best = r.done_time;
      }
    }
    return best;
  }

  /// Latest halt time; nullopt when some process never halted.
  [[nodiscard]] std::optional<double> last_halt() const {
    std::optional<double> worst;
    for (const auto& r : records_) {
      if (!r.halt_time.has_value()) return std::nullopt;
      if (!worst.has_value() || *r.halt_time > *worst) worst = r.halt_time;
    }
    return worst;
  }

 private:
  std::vector<Record> records_;
};

TEST(HaltingTimesTest, FinishWaveHaltsEveryoneWithinNTimeUnits) {
  support::Rng rng(0x8a17);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 3 + rng.below(12);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    for (const auto algo :
         {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
      HaltingTimes times;
      EventEngine engine(*ring, election::make_factory({algo, k, false}),
                         Delay(DelayKind::kWorstCase, 0, n));
      engine.add_observer(&times);
      ASSERT_EQ(engine.run().outcome, Outcome::kTerminated)
          << ring->to_string();
      const auto decision = times.first_decision();
      const auto quiescent = times.last_halt();
      ASSERT_TRUE(decision.has_value());
      ASSERT_TRUE(quiescent.has_value());
      EXPECT_LE(*quiescent, *decision + static_cast<double>(n))
          << election::algorithm_name(algo) << " on " << ring->to_string();
    }
  }
}

TEST(HaltingTimesTest, LeaderDecidesFirstInAk) {
  // In A_k the leader's A3 is the first done-setting action.
  support::Rng rng(0x8a18);
  const auto ring = ring::random_asymmetric_ring(9, 2, 7, rng);
  ASSERT_TRUE(ring.has_value());
  HaltingTimes times;
  EventEngine engine(
      *ring,
      election::make_factory({election::AlgorithmId::kAk, 2, false}),
      Delay(DelayKind::kWorstCase, 0, ring->size()));
  engine.add_observer(&times);
  ASSERT_EQ(engine.run().outcome, Outcome::kTerminated);
  const auto leader = ring->true_leader();
  const auto& records = times.records();
  ASSERT_TRUE(records[leader].done_time.has_value());
  for (std::size_t pid = 0; pid < ring->size(); ++pid) {
    ASSERT_TRUE(records[pid].done_time.has_value()) << "p" << pid;
    EXPECT_LE(*records[leader].done_time, *records[pid].done_time)
        << "p" << pid;
    // Halting follows deciding.
    ASSERT_TRUE(records[pid].halt_time.has_value());
    EXPECT_LE(*records[pid].done_time, *records[pid].halt_time);
  }
}

TEST(HaltingTimesTest, EmptyOnUndecidedRun) {
  // A budget-limited run that never elects: no decision, no quiescence.
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  HaltingTimes times;
  EventConfig config;
  config.max_actions = 5;
  EventEngine engine(
      ring, election::make_factory({election::AlgorithmId::kBk, 2, false}),
      Delay(DelayKind::kWorstCase, 0, ring.size()), config);
  engine.add_observer(&times);
  EXPECT_EQ(engine.run().outcome, Outcome::kBudgetExhausted);
  EXPECT_FALSE(times.first_decision().has_value());
  EXPECT_FALSE(times.last_halt().has_value());
}

}  // namespace
}  // namespace hring::sim
