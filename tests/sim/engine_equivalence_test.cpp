// Engine cross-validation: for the deterministic algorithms of this
// library, the synchronous step engine and the unit-delay event engine
// generate the SAME execution — identical action sequences per process,
// identical final local states, identical statistics (up to the engines'
// different notions of "step"). This pins both engines against each other
// far more tightly than outcome equality.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "sim/engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/observer.hpp"

namespace hring::sim {
namespace {

/// Per-process sequence of (action label, consumed message) pairs.
class ActionLog final : public Observer {
 public:
  void on_start(const ExecutionView& view) override {
    log_.assign(view.process_count(), {});
  }
  void on_action(const ExecutionView&, const ActionEvent& event) override {
    std::string entry(event.action);
    if (event.consumed.has_value()) {
      entry += '/';
      entry += to_string(*event.consumed);
    }
    log_[event.pid].push_back(std::move(entry));
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& log() const {
    return log_;
  }

 private:
  std::vector<std::vector<std::string>> log_;
};

class EngineEquivalence
    : public ::testing::TestWithParam<election::AlgorithmId> {};

TEST_P(EngineEquivalence, SyncStepAndUnitDelayEventRunsAreIdentical) {
  support::Rng rng(0xE9 + static_cast<unsigned>(GetParam()));
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t n = 2 + rng.below(9);
    // Baselines require distinct labels; the paper's algorithms get
    // homonym rings.
    const bool paper_algo = election::elects_true_leader(GetParam());
    const std::size_t k = paper_algo ? 1 + rng.below(3) : 1;
    const auto ring =
        paper_algo
            ? ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng)
            : std::optional<ring::LabeledRing>(ring::distinct_ring(n, rng));
    ASSERT_TRUE(ring.has_value());
    const auto factory =
        election::make_factory({GetParam(), k, false});

    StepEngine step(*ring, factory, Scheduler(SchedulerKind::kSynchronous, 0));
    ActionLog step_log;
    step.add_observer(&step_log);
    const auto step_result = step.run();

    EventEngine event(*ring, factory, Delay(DelayKind::kWorstCase, 0, n));
    ActionLog event_log;
    event.add_observer(&event_log);
    const auto event_result = event.run();

    ASSERT_EQ(step_result.outcome, Outcome::kTerminated)
        << ring->to_string();
    ASSERT_EQ(event_result.outcome, Outcome::kTerminated)
        << ring->to_string();
    // Identical per-process action sequences …
    EXPECT_EQ(step_log.log(), event_log.log()) << ring->to_string();
    // … identical final local states …
    for (std::size_t pid = 0; pid < n; ++pid) {
      EXPECT_EQ(step_result.processes[pid].debug,
                event_result.processes[pid].debug)
          << "p" << pid << " on " << ring->to_string();
      EXPECT_EQ(step_result.processes[pid].is_leader,
                event_result.processes[pid].is_leader);
    }
    // … identical message statistics.
    EXPECT_EQ(step_result.stats.messages_sent,
              event_result.stats.messages_sent);
    EXPECT_EQ(step_result.stats.sent_by_process,
              event_result.stats.sent_by_process);
    EXPECT_EQ(step_result.stats.received_by_process,
              event_result.stats.received_by_process);
    EXPECT_EQ(step_result.stats.peak_space_bits,
              event_result.stats.peak_space_bits);
    // Synchronous steps and unit-delay completion time agree up to the
    // off-by-init convention: the event engine fires inits at t = 0.
    EXPECT_NEAR(step_result.stats.time_units,
                event_result.stats.time_units + 1.0, 1.0)
        << ring->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, EngineEquivalence,
    ::testing::Values(election::AlgorithmId::kAk, election::AlgorithmId::kBk,
                      election::AlgorithmId::kChangRoberts,
                      election::AlgorithmId::kLeLann,
                      election::AlgorithmId::kPeterson),
    [](const auto& pinfo) {
      return election::algorithm_name(pinfo.param);
    });

}  // namespace
}  // namespace hring::sim
